"""Aggregator: drives the query lifecycle of Figure 3(a), one batch at a time.

The aggregator never sees raw rows.  It forwards the workload, collects the
DP-noised summaries, solves the per-query allocation problems, distributes
allocations, collects the local estimates, and combines them — either by
plain summation (each provider already added its own Laplace noise) or
through the simulated SMC path (oblivious sum of un-noised estimates + a
single Laplace noise calibrated with the maximum smooth sensitivity).

:meth:`Aggregator.execute_batch` amortises the summary / allocation /
estimate phases across a whole workload: each provider is contacted once per
phase with every query of the batch, through the configured
:mod:`~repro.federation.transport` carrier.  Each phase is *posted* to every
provider before the first reply is awaited, so carriers whose endpoints run
elsewhere (the ``"process"`` carrier's workers) overlap the per-provider
work while in-process endpoints are simply called in order.  The
single-query :meth:`execute_query` is a batch of one, so both paths share
one implementation and produce bit-identical results for the same seed.  An
aggregator whose transport owns resources (worker processes and shared
blocks, sockets) releases them with :meth:`Aggregator.close` (or use the
aggregator as a context manager).

When the providers' release caches are enabled
(:class:`~repro.config.CacheConfig`), the aggregator additionally tracks
which summaries and estimates were served from cache and prices each query
accordingly: a provider that re-served a release spent nothing on it, and
the federation-wide charge of a query is the parallel composition (maximum)
of the per-provider spends.  :meth:`Aggregator.plan_reuse` exposes the
pre-execution view of that split for budget admission.

**Degradation.**  With :class:`~repro.config.ResilienceConfig` enabled, a
provider that fails a phase — scripted chaos via
:attr:`~repro.config.SystemConfig.injected_faults`, a dead or hung
worker process, a lost connection — no longer fails the batch.  The
aggregator retries with backoff (the process carrier respawns a lost worker
from the existing shared-memory blocks on the retry), then drops the
provider from the batch: allocation is re-solved over the survivors, the
combined answers carry ``degraded=True`` and the missing provider ids, and
:meth:`_query_charge` prices each query from what was actually *released* —
a provider that never delivered a phase contributes no spend, so the
end-user charge stays exact under partial failure.  Providers that fail
``quarantine_after`` consecutive batches are quarantined (skipped outright)
until :meth:`reinstate` lifts them.  Without resilience, any provider
failure raises :class:`~repro.errors.ProtocolError` exactly as before.
"""

from __future__ import annotations

import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Callable, Sequence, TypeVar

import numpy as np

from ..cache.planner import ReusePlan, ReusePlanner
from ..config import SystemConfig
from ..core.accounting import QueryBudget
from ..core.allocation import solve_allocation_batch
from ..core.result import ExecutionTrace, ProviderDiagnostics, ProviderRelease
from ..dp.mechanisms import LaplaceMechanism
from ..errors import (
    InjectedFaultError,
    ProtocolError,
    TransportError,
    TransportTimeoutError,
)
from ..ingest.delta import IngestReceipt, validate_rows
from ..query.model import RangeQuery
from ..storage.table import Table
from ..testing.faults import FaultInjector
from ..utils.rng import RngLike, derive_rng
from ..utils.timing import Stopwatch
from .messages import (
    AllocationMessage,
    EstimateMessage,
    IngestAck,
    IngestRequest,
    QueryRequest,
    SummaryMessage,
)
from .network import NetworkStats, SimulatedNetwork
from .provider import DataProvider
from .smc import SMCSimulator
from .transport import Transport, create_transport

__all__ = ["Aggregator", "FederatedAnswer", "ResilienceStats"]

_T = TypeVar("_T")

_FAILED = object()
"""What a guarded half of a provider call returns when it failed."""


@dataclass(frozen=True)
class FederatedAnswer:
    """The aggregator's combined answer plus what each provider released.

    Attributes
    ----------
    value:
        The combined DP answer.
    noise_injected:
        The single SMC noise, which the aggregator drew itself; on the plain
        path the sum of the providers' own noises, read from their
        diagnostics — ``None`` where there are none (any wire carrier).
    used_smc:
        Whether the SMC combination path produced the value.
    provider_releases:
        One release per *answering* provider, in federation order, built
        from the allocation sent and the estimate received.
    provider_diagnostics:
        The answering providers' local diagnostics, aligned with
        ``provider_releases`` — only when every one of them shares this
        process (the in-process carrier); ``None`` otherwise.
    trace:
        Work / timing / communication / reuse accounting.
    epsilon_charged, delta_charged:
        What this query actually cost the end user.  Equal to the full
        per-query budget when every release was fresh; lower (down to zero)
        when providers re-served cached releases, because post-processing
        is free and spends compose in parallel across disjoint providers.
        Under degradation the charge prices only the releases that were
        actually delivered.
    degraded:
        Whether any provider was missing from the batch that produced this
        answer (the value then covers the survivors' partitions only).
    providers_missing:
        Ids of the providers that failed or were quarantined out of the
        batch, in federation order.  Empty for a healthy batch.
    """

    value: float
    noise_injected: float | None
    used_smc: bool
    provider_releases: tuple[ProviderRelease, ...]
    trace: ExecutionTrace
    epsilon_charged: float = 0.0
    delta_charged: float = 0.0
    degraded: bool = False
    providers_missing: tuple[str, ...] = ()
    provider_diagnostics: tuple[ProviderDiagnostics, ...] | None = None


@dataclass(frozen=True)
class ResilienceStats:
    """Cumulative degradation counters for one aggregator.

    ``workers_respawned`` comes from the process carrier and stays zero on
    the others; ``worker_timeouts`` counts real reply timeouts (socket and
    process carriers) plus injected hangs on carriers that can only
    simulate them as an immediate timeout.
    """

    provider_failures: int = 0
    provider_retries: int = 0
    providers_quarantined: int = 0
    degraded_batches: int = 0
    workers_respawned: int = 0
    worker_timeouts: int = 0

    def as_dict(self) -> dict[str, int]:
        """Plain-dict form for metric registries and benchmark harnesses."""
        return {name: getattr(self, name) for name in self.__dataclass_fields__}


@dataclass
class _QueryAccounting:
    """Per-query network counters accumulated during a batch."""

    messages: int = 0
    bytes_sent: int = 0
    simulated_seconds: float = 0.0


@dataclass
class PhasedBatch:
    """One in-flight batch, split at the protocol's phase boundaries.

    Produced by :meth:`Aggregator.begin_batch` (summary + allocation
    phases done, provider sessions open), advanced by
    :meth:`Aggregator.collect_batch` (answer phase done, sessions
    released), finished by :meth:`Aggregator.settle_batch` (combination —
    pure aggregator-side math over already-collected messages, safe to run
    on a different thread than the next batch's provider phases).  The
    serving layer's overlapped drain pipeline threads this object through
    its dispatcher; :meth:`Aggregator.execute_batch` is the serial
    composition of the three calls and stays bit-identical.

    If a begun batch will never be collected (its pipeline died), call
    :meth:`Aggregator.abandon_batch` so the providers' per-query sessions
    are released — an abandoned session would otherwise block compaction.
    """

    requests: list[QueryRequest]
    budget: QueryBudget
    rate: float
    smc: bool
    degrade: bool
    failed: dict[int, str]
    accounting: list[_QueryAccounting]
    stopwatch: Stopwatch
    summaries: dict[int, list[SummaryMessage]] = field(default_factory=dict)
    summary_reuse: dict[int, list[bool]] = field(default_factory=dict)
    allocations: dict[int, list[AllocationMessage]] = field(default_factory=dict)
    answers: dict[int, list[EstimateMessage]] = field(default_factory=dict)
    answer_reuse: dict[int, list[bool]] = field(default_factory=dict)
    # Provider-local, present only for providers on the in-process carrier.
    diagnostics: dict[int, list[ProviderDiagnostics]] = field(default_factory=dict)
    survivors: list[int] = field(default_factory=list)
    clusters_available: int = 0
    providers_missing: tuple[str, ...] = ()
    sessions_released: bool = False
    collected: bool = False
    trace_ctx: tuple[str, str] | None = None
    owns_trace: bool = False


@dataclass
class Aggregator:
    """Coordinates one federation of data providers."""

    providers: Sequence[DataProvider]
    config: SystemConfig
    network: SimulatedNetwork = field(default_factory=SimulatedNetwork)
    rng: RngLike = None
    obs: object | None = field(default=None, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not self.providers:
            raise ProtocolError("an aggregator needs at least one provider")
        self._rng = derive_rng(self.rng, "aggregator")
        self._tracer = getattr(self.obs, "tracer", None)
        self._next_query_id = 0
        self._batch_counter = 0
        self._fault_injector: FaultInjector | None = None
        if self.config.injected_faults is not None:
            self._fault_injector = FaultInjector(self.config.injected_faults)
            # The network consults the same injector for message faults, so
            # one schedule drives one deterministic chaos run end to end.
            self.network.fault_injector = self._fault_injector
        self._transport = self._open_transport()
        self._reuse_planner = ReusePlanner(
            providers=self.providers,
            min_allocation=self.config.sampling.min_allocation,
        )
        self._consecutive_failures: dict[int, int] = {}
        self._quarantined: dict[int, str] = {}
        self._degraded_batches = 0
        self._provider_failures = 0
        self._provider_retries = 0
        self._worker_timeouts = 0
        for provider in self.providers:
            # Eager invalidation: a provider re-clustering (rebuild_layout or
            # compaction) immediately tells the transport, so a carrier that
            # hosts snapshots of the dead layout (worker processes over
            # shared memory) tears them down now, not on the next batch.
            provider.subscribe_layout_change(self._on_provider_layout_change)

    def _on_provider_layout_change(self, _provider: DataProvider) -> None:
        self._transport.layout_changed()

    def _open_transport(self) -> Transport:
        """Build the configured transport, wired to this aggregator's injector.

        Every provider-phase call goes through it — direct calls by
        default, a wire otherwise.
        """
        transport = create_transport(
            self.config.transport,
            self.providers,
            resilience=self.config.resilience,
            tracer=self._tracer,
        )
        transport.fault_injector = self._fault_injector
        return transport

    # -- lifecycle --------------------------------------------------------------

    def close(self) -> None:
        """Release what the transport owns — workers, shared blocks, sockets.

        Idempotent, and a no-op for the in-process transport; safe to call
        always.  The next batch builds a fresh transport.
        """
        self._transport.close()

    def __enter__(self) -> "Aggregator":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- degradation introspection ----------------------------------------------

    @property
    def quarantined_providers(self) -> tuple[str, ...]:
        """Ids of the providers currently quarantined, in federation order."""
        return tuple(
            self.providers[index].provider_id for index in sorted(self._quarantined)
        )

    def reinstate(self, provider_id: str | None = None) -> None:
        """Lift quarantine for one provider (or all of them).

        The consecutive-failure counter resets too, so a reinstated provider
        gets a full ``quarantine_after`` grace again.
        """
        for index in sorted(self._quarantined):
            if provider_id is None or self.providers[index].provider_id == provider_id:
                del self._quarantined[index]
                self._consecutive_failures[index] = 0

    @property
    def resilience_stats(self) -> ResilienceStats:
        """Cumulative degradation counters (aggregator + transport carrier)."""
        return ResilienceStats(
            provider_failures=self._provider_failures,
            provider_retries=self._provider_retries,
            providers_quarantined=len(self._quarantined),
            degraded_batches=self._degraded_batches,
            workers_respawned=self._transport.carrier_stats.get("workers_respawned", 0),
            worker_timeouts=self._worker_timeouts,
        )

    @property
    def fault_injector(self) -> FaultInjector | None:
        """The runtime injector for this aggregator's fault schedule, if any."""
        return self._fault_injector

    @property
    def transport(self) -> Transport:
        """The transport carrying this federation's provider-phase calls."""
        return self._transport

    def _ensure_transport(self) -> Transport:
        if self._transport.closed:
            # A previous batch died mid-protocol and the abnormal-exit path
            # closed the aggregator to reclaim its resources (workers, shared
            # blocks, sockets).  Handing the dead wire out again would wedge
            # every later batch, so rebuild it — carrying the accumulated
            # counters forward so accounting stays cumulative.
            old = self._transport
            self._transport = self._open_transport()
            self._transport.stats = old.snapshot_stats()
            self._transport.carrier_stats = old.carrier_stats
            self._transport.kernel_telemetry = old.kernel_telemetry
        return self._transport

    @property
    def transport_stats(self) -> NetworkStats:
        """Real framed wire traffic of the transport (all zeros in-process).

        Unlike :attr:`network`'s simulated cost model, these counters
        reflect actual serialized frames: ``messages`` counts frames,
        ``bytes_sent`` counts framed bytes on the (loopback, socket or
        pipe) wire, and ``frames_duplicated`` counts discarded duplicate
        replies.
        """
        return self._transport.snapshot_stats()

    # -- public API -------------------------------------------------------------

    def execute_query(
        self,
        query: RangeQuery,
        budget: QueryBudget,
        *,
        sampling_rate: float | None = None,
        use_smc: bool | None = None,
    ) -> FederatedAnswer:
        """Run the full protocol for one query and return the combined answer."""
        return self.execute_batch(
            [query], budget, sampling_rate=sampling_rate, use_smc=use_smc
        )[0]

    def execute_batch(
        self,
        queries: Sequence[RangeQuery],
        budget: QueryBudget,
        *,
        sampling_rate: float | None = None,
        use_smc: bool | None = None,
        seed_tokens: Sequence[tuple[int, ...] | None] | None = None,
    ) -> list[FederatedAnswer]:
        """Run the full protocol for a workload and return per-query answers.

        All queries of the batch march through the three protocol phases
        together: one summary round-trip per provider for the whole workload,
        one allocation solve per query, one answering round-trip per provider,
        and one combination per query.  Session state is always released —
        even when a phase raises — so providers cannot leak per-query state.

        ``seed_tokens`` (aligned with ``queries`` when given) pins each
        query's provider-side noise streams to a caller-chosen key instead of
        the providers' positional root streams — see
        :attr:`~repro.federation.messages.QueryRequest.seed_material`.  The
        multi-tenant scheduler passes per-``(tenant, sequence)`` tokens so
        coalescing never changes a tenant's answers.

        With resilience enabled a provider failure degrades the batch (see
        the module docstring) instead of raising; the batch still raises
        :class:`~repro.errors.ProtocolError` when fewer than
        ``min_providers`` survive a phase.
        """
        if not queries:
            return []
        phased = self.begin_batch(
            queries,
            budget,
            sampling_rate=sampling_rate,
            use_smc=use_smc,
            seed_tokens=seed_tokens,
        )
        self.collect_batch(phased)
        return self.settle_batch(phased)

    def begin_batch(
        self,
        queries: Sequence[RangeQuery],
        budget: QueryBudget,
        *,
        sampling_rate: float | None = None,
        use_smc: bool | None = None,
        seed_tokens: Sequence[tuple[int, ...] | None] | None = None,
    ) -> PhasedBatch:
        """Run the summary + allocation phases and return the open batch.

        First half of :meth:`execute_batch`.  On return the providers hold
        per-query sessions pinned to the current layout snapshot; the
        caller must advance the batch with :meth:`collect_batch` (or
        release it with :meth:`abandon_batch`) before any compaction can
        run.  Raises exactly like :meth:`execute_batch`'s first two phases;
        sessions are always released on failure.
        """
        if not queries:
            raise ProtocolError("a batch must contain at least one query")
        if seed_tokens is not None and len(seed_tokens) != len(queries):
            raise ProtocolError(
                f"seed_tokens must align with queries: got {len(seed_tokens)} tokens "
                f"for {len(queries)} queries"
            )
        rate = self.config.sampling.sampling_rate if sampling_rate is None else sampling_rate
        if not 0 < rate < 1:
            raise ProtocolError(f"sampling_rate must be in (0, 1), got {rate}")
        smc = self.config.use_smc_for_result if use_smc is None else use_smc

        if self._fault_injector is not None:
            self._fault_injector.begin_batch(self._batch_counter)
        self._batch_counter += 1
        self._ensure_transport()
        degrade = self.config.resilience.enabled
        # Per-batch failure ledger: provider index -> reason.  Quarantined
        # providers enter it pre-failed and are never contacted.
        failed: dict[int, str] = {}
        if degrade:
            for index, reason in sorted(self._quarantined.items()):
                failed[index] = f"quarantined: {reason}"

        # Trace root: nest under the caller's active span when there is one
        # (the scheduler's per-chunk span), otherwise open a batch-level
        # root trace here.  With tracing disabled ``trace_ctx`` stays None
        # and the requests below are constructed exactly as before.
        trace_ctx = None
        owns_trace = False
        if self._tracer is not None:
            trace_ctx = self._tracer.context()
            if trace_ctx is None:
                trace_ctx = self._tracer.begin_trace(
                    "batch", num_queries=len(queries)
                )
                owns_trace = trace_ctx is not None

        first_id = self._next_query_id
        self._next_query_id += len(queries)
        requests = [
            QueryRequest(
                query_id=first_id + index,
                query=query,
                sampling_rate=rate,
                seed_material=None if seed_tokens is None else seed_tokens[index],
                trace_context=trace_ctx,
            )
            for index, query in enumerate(queries)
        ]
        phased = PhasedBatch(
            requests=requests,
            budget=budget,
            rate=rate,
            smc=smc,
            degrade=degrade,
            failed=failed,
            accounting=[_QueryAccounting() for _ in requests],
            stopwatch=Stopwatch(),
            trace_ctx=trace_ctx,
            owns_trace=owns_trace,
        )
        try:
            with self._phase_span("batch.allocation", phased):
                with phased.stopwatch.measure("allocation"):
                    summaries, summary_reuse = self._collect_summaries(
                        requests, budget, phased.accounting, failed
                    )
                    self._check_survivors(summaries, failed, "summary")
                    allocations = self._allocate(
                        requests, summaries, rate, phased.accounting
                    )
        except BaseException:
            self._release_sessions(phased)
            if owns_trace:
                self._tracer.end_span(trace_ctx, error="batch failed")
            raise
        phased.summaries = summaries
        phased.summary_reuse = summary_reuse
        phased.allocations = allocations
        return phased

    def _phase_span(self, name: str, phased: PhasedBatch):
        """Span for one protocol phase, pinned under the batch's trace root.

        Explicit parenting (instead of contextvar inheritance) because the
        overlapped drain pipeline runs begin/collect/settle on different
        threads.  A cheap ``nullcontext`` when tracing is off or the trace
        was not sampled.
        """
        if self._tracer is None or phased.trace_ctx is None:
            return nullcontext()
        return self._tracer.span(name, parent=phased.trace_ctx)

    def collect_batch(self, phased: PhasedBatch) -> None:
        """Run the answer phase of a begun batch and release its sessions.

        Second half of the provider-facing protocol.  Session state is
        always released — even when the phase raises — so providers cannot
        leak per-query state; on success the quarantine counters advance
        (the batch's provider outcome is final once the answers are in,
        whatever happens during combination).
        """
        try:
            with self._phase_span("batch.local_answering", phased):
                with phased.stopwatch.measure("local_answering"):
                    answers, answer_reuse, diagnostics = self._collect_answers(
                        phased.allocations,
                        phased.budget,
                        phased.smc,
                        phased.accounting,
                        phased.failed,
                    )
                    self._check_survivors(answers, phased.failed, "answer")
        finally:
            # Providers must never accumulate per-query state, even when a
            # phase fails between summary and answer.  The release goes
            # through the transport, to wherever the sessions live (the
            # forget is idempotent for providers that never opened a
            # session this batch).
            self._release_sessions(phased)
        phased.answers = answers
        phased.answer_reuse = answer_reuse
        phased.diagnostics = diagnostics
        phased.survivors = sorted(answers)
        # Provider-derived trace inputs are captured here, on the thread
        # that owns provider state: an overlapped pipeline may settle this
        # batch while a later work item (e.g. an ingest-triggered
        # compaction) is already mutating the layouts.
        phased.clusters_available = sum(
            self.providers[provider_index].num_clusters
            for provider_index in phased.survivors
        )
        phased.providers_missing = tuple(
            self.providers[provider_index].provider_id
            for provider_index in sorted(phased.failed)
        )
        phased.collected = True
        if phased.degrade:
            self._update_quarantine(phased.failed)

    def abandon_batch(self, phased: PhasedBatch) -> None:
        """Release a begun batch that will never be collected (idempotent).

        An abandoned pipeline must not leave provider sessions open — they
        would block every later compaction — so the dispatcher's failure
        path routes uncollected batches here.
        """
        self._release_sessions(phased)

    def _release_sessions(self, phased: PhasedBatch) -> None:
        if phased.sessions_released:
            return
        phased.sessions_released = True
        query_ids = [request.query_id for request in phased.requests]
        for index in range(len(self.providers)):
            try:
                self._transport.forget_batch(index, query_ids)
            except TransportError:
                # A broken wire must never leak sessions, and the cleanup
                # must not mask the phase's own exception: the carrier
                # knows where its sessions live — in this process (release
                # them directly) or in a worker (kill it; they die with it).
                self._transport.drop_sessions(index, query_ids)

    def settle_batch(self, phased: PhasedBatch) -> list[FederatedAnswer]:
        """Combine a collected batch into per-query answers.

        Pure aggregator-side math over already-collected messages (plus the
        SMC exchange when enabled): no provider state is touched, so the
        serving layer's overlapped pipeline runs this on its settlement
        thread while the dispatcher begins the next chunk's summary phase.
        """
        if not phased.collected:
            raise ProtocolError("settle_batch needs a collected batch")
        num_queries = len(phased.requests)
        budget = phased.budget
        answers = phased.answers
        survivors = phased.survivors
        with self._phase_span("batch.combination", phased):
            with phased.stopwatch.measure("combination"):
                combined = [
                    self._combine(
                        [answers[provider_index][index] for provider_index in survivors],
                        budget,
                        phased.smc,
                        phased.accounting[index],
                    )
                    for index in range(num_queries)
                ]
        # Diagnostics describe a query only when every answering provider
        # handed its own back; one provider behind a wire makes them absent.
        diagnostics = (
            phased.diagnostics
            if all(provider_index in phased.diagnostics for provider_index in survivors)
            else None
        )
        allocations = phased.allocations
        provider_ids = [self.providers[p].provider_id for p in survivors]

        phase_seconds = phased.stopwatch.as_dict()
        summary_survivors = sorted(phased.summaries)
        summary_reuse = phased.summary_reuse
        answer_reuse = phased.answer_reuse
        results: list[FederatedAnswer] = []
        for index in range(num_queries):
            value, noise = combined[index]
            releases = tuple(
                ProviderRelease(
                    provider_id=provider_id,
                    allocation=allocations[p][index].sample_size,
                    approximated=answers[p][index].approximated,
                    released_value=answers[p][index].value,
                )
                for provider_id, p in zip(provider_ids, survivors)
            )
            local = None
            if diagnostics is not None:
                local = tuple(diagnostics[p][index] for p in survivors)
                if not phased.smc:
                    # A diagnostic read, not a protocol input: the released
                    # value above is already the sum of noised estimates.
                    noise = float(sum(entry.local_noise for entry in local))
            # Work counters come from diagnostics only: 0 behind a wire.
            work = local or ()
            # Charge masks run over every provider that delivered a summary:
            # providers lost before the summary released nothing and spend
            # nothing; providers lost between summary and answer spent only
            # their (fresh) summary release.
            epsilon_charged, delta_charged = self._query_charge(
                budget,
                [summary_reuse[p][index] for p in summary_survivors],
                [
                    answer_reuse[p][index] if p in answer_reuse else True
                    for p in summary_survivors
                ],
                answer_released=[p in answer_reuse for p in summary_survivors],
            )
            trace = ExecutionTrace(
                # Wall-clock phases are measured per batch; each query carries
                # its amortised share (exact for a batch of one).
                phase_seconds={
                    name: seconds / num_queries for name, seconds in phase_seconds.items()
                },
                simulated_network_seconds=phased.accounting[index].simulated_seconds,
                messages_sent=phased.accounting[index].messages,
                bytes_sent=phased.accounting[index].bytes_sent,
                clusters_scanned=sum(entry.sampled_clusters for entry in work),
                clusters_available=phased.clusters_available,
                rows_scanned=sum(entry.rows_scanned for entry in work),
                rows_available=sum(entry.rows_available for entry in work),
                smc_operations=0,
                summary_cache_hits=sum(
                    summary_reuse[p][index] for p in summary_survivors
                ),
                answer_cache_hits=sum(
                    answer_reuse[p][index] for p in sorted(answer_reuse)
                ),
            )
            results.append(
                FederatedAnswer(
                    value=value,
                    noise_injected=noise,
                    used_smc=phased.smc,
                    provider_releases=releases,
                    trace=trace,
                    epsilon_charged=epsilon_charged,
                    delta_charged=delta_charged,
                    degraded=bool(phased.failed),
                    providers_missing=phased.providers_missing,
                    provider_diagnostics=local,
                )
            )
        if phased.owns_trace:
            self._tracer.end_span(
                phased.trace_ctx,
                degraded=bool(phased.failed),
                providers_missing=len(phased.failed),
            )
        return results

    def ingest(
        self, partitions: Sequence[Table | None]
    ) -> list[IngestReceipt | None]:
        """Route one batch of appended rows to each provider's delta store.

        Parameters
        ----------
        partitions:
            One table (or ``None`` / empty for "nothing") per provider, in
            federation order.

        Returns
        -------
        list of IngestReceipt or None
            One receipt per provider that received rows, aligned with the
            federation order.

        Notes
        -----
        Each non-empty partition is charged to the simulated network under
        the ``"ingest"`` traffic class (request scaling with the row count,
        plus a constant-size ack), so Figure-1-style communication
        accounting of the query protocol stays untouched.  A transport that
        hosts copies of the providers (the process carrier) mirrors the
        append onto the provider's worker first, keeping both views of the
        delta buffer in lockstep; a compaction triggered by the append bumps
        the provider's layout epoch, which eagerly tears the workers down
        for a rebuild on the folded state.
        """
        if len(partitions) != len(self.providers):
            raise ProtocolError(
                f"ingest needs one partition per provider: got {len(partitions)} "
                f"for {len(self.providers)} providers"
            )
        # All-or-nothing validation BEFORE any provider is touched: a bad
        # partition must not leave the federation half-applied (a retry
        # would duplicate the partitions that did land).
        for provider, rows in zip(self.providers, partitions):
            if rows is not None and rows.num_rows:
                validate_rows(provider.table.schema, rows)
        receipts: list[IngestReceipt | None] = []
        for index, (provider, rows) in enumerate(zip(self.providers, partitions)):
            if rows is None or rows.num_rows == 0:
                receipts.append(None)
                continue
            request = IngestRequest(
                provider_id=provider.provider_id,
                num_rows=rows.num_rows,
                num_columns=len(rows.schema.column_names),
            )
            self.network.send(request.payload_bytes(), message_class="ingest")
            self._transport.mirror_ingest(index, rows)
            receipt = provider.ingest_rows(rows)
            ack = IngestAck(
                provider_id=provider.provider_id,
                delta_watermark=receipt.delta_watermark,
                layout_epoch=receipt.layout_epoch,
                compacted=receipt.compacted,
            )
            self.network.send(ack.payload_bytes(), message_class="ingest")
            receipts.append(receipt)
        return receipts

    def plan_reuse(
        self,
        queries: Sequence[RangeQuery],
        budget: QueryBudget,
        *,
        sampling_rate: float | None = None,
        use_smc: bool | None = None,
    ) -> ReusePlan:
        """Preview which queries of a workload are fully served by the caches.

        Delegates to :class:`~repro.cache.planner.ReusePlanner` with this
        federation's providers and allocation floor.  Never mutates any
        cache; used by the system facade for budget-aware batch admission.
        """
        rate = self.config.sampling.sampling_rate if sampling_rate is None else sampling_rate
        smc = self.config.use_smc_for_result if use_smc is None else use_smc
        return self._reuse_planner.preview(queries, budget, rate, use_smc=smc)

    @staticmethod
    def _query_charge(
        budget: QueryBudget,
        summary_hits: Sequence[bool],
        answer_hits: Sequence[bool],
        summary_released: Sequence[bool] | None = None,
        answer_released: Sequence[bool] | None = None,
    ) -> tuple[float, float]:
        """Actual ``(epsilon, delta)`` cost of one query across the federation.

        Each provider sequentially spends only the phases it released fresh
        (cache hits are post-processing); providers hold disjoint partitions,
        so the end-user charge is the parallel composition — the maximum —
        of the per-provider spends.  With every release fresh this equals
        the full ``(epsilon_total, delta)``, bit-for-bit.

        The ``*_released`` masks (default: everything released) mark which
        phases each provider actually *delivered*: a degraded batch charges
        nothing for a phase that never reached the aggregator, because the
        release was never observed.
        """
        epsilon = 0.0
        delta = 0.0
        count = len(summary_hits)
        if summary_released is None:
            summary_released = [True] * count
        if answer_released is None:
            answer_released = [True] * count
        for summary_hit, answer_hit, summary_rel, answer_rel in zip(
            summary_hits, answer_hits, summary_released, answer_released
        ):
            spent = (
                0.0
                if (summary_hit or not summary_rel)
                else budget.epsilon_allocation
            )
            answered_fresh = answer_rel and not answer_hit
            if answered_fresh:
                spent = spent + budget.epsilon_sampling + budget.epsilon_estimation
            epsilon = max(epsilon, spent)
            delta = max(delta, budget.delta if answered_fresh else 0.0)
        return epsilon, delta

    # -- provider fan-out --------------------------------------------------------

    def _fanout_resilient(
        self,
        phase: str,
        indices: Sequence[int],
        post: Callable[[int, int], Callable[[], _T]],
        failed: dict[int, str],
    ) -> dict[int, _T]:
        """Fan one phase out over the transport, with fault handling and retry.

        ``post(index, attempt)`` starts provider ``index``'s call through
        the transport and returns the thunk that waits for its result.
        Every call of an attempt is posted before the first is awaited, so
        a carrier with endpoints in other processes overlaps them; the
        others run each call inside ``post``, strictly in index order.
        Each provider owns an independent RNG derivation tree, so both are
        bit-identical.

        A scripted provider fault is first offered to the transport
        (:meth:`~repro.federation.transport.Transport.inject`), which may
        make it happen for real; in-process providers cannot genuinely
        crash or hang, so elsewhere the fault fails the attempt *before*
        the call runs (a ``hang_worker`` counts as a simulated timeout).
        Without resilience such a fault raises
        :class:`~repro.errors.InjectedFaultError`; with it, failures retry
        up to ``max_retries`` times and then land in ``failed``.  A
        :class:`~repro.errors.TransportError` from either half of a call is
        treated exactly like a failed provider.  Wire faults are keyed on
        the attempt number and fire *before* the provider consumes
        randomness, so a retried attempt is bit-identical to a
        never-faulted call.
        """
        resilience = self.config.resilience
        degrade = resilience.enabled
        max_attempts = 1 + (resilience.max_retries if degrade else 0)
        # Captured once: each per-provider attempt span is parented under
        # the phase span explicitly.  A failed attempt's span is tagged with
        # the error type, so retries are visible in the trace.  (On the
        # process carrier the span covers the post; the worker's own
        # provider span, parented under it, covers the work.)
        trace_parent = self._tracer.context() if self._tracer is not None else None

        def traced_post(index: int, attempt: int) -> Callable[[], _T]:
            if trace_parent is None:
                return post(index, attempt)
            with self._tracer.span(
                f"attempt.{phase}",
                parent=trace_parent,
                provider=self.providers[index].provider_id,
                attempt=attempt,
            ):
                return post(index, attempt)

        results: dict[int, _T] = {}
        pending = list(indices)
        attempt = 0
        while pending:
            attempt += 1
            failed_now: dict[int, str] = {}
            runnable: list[int] = []
            for index in pending:
                fault = (
                    self._fault_injector.take_call_fault(phase, index, attempt)
                    if self._fault_injector is not None
                    else None
                )
                if fault is None or self._transport.inject(index, fault):
                    runnable.append(index)
                    continue
                if not degrade:
                    raise InjectedFaultError(
                        f"injected {fault.kind} for provider "
                        f"{self.providers[index].provider_id!r} during {phase}"
                    )
                if fault.kind == "hang_worker":
                    self._worker_timeouts += 1
                    failed_now[index] = f"injected {fault.kind} (simulated timeout)"
                else:
                    failed_now[index] = f"injected {fault.kind}"

            def guarded(index: int, half: Callable[[], object]) -> object:
                """Run one half of a call; under resilience a wire failure
                degrades (recorded in ``failed_now``, ``_FAILED`` returned)."""
                try:
                    return half()
                except TransportTimeoutError as error:
                    if not degrade:
                        raise
                    self._worker_timeouts += 1
                    failed_now[index] = f"transport timeout: {error}"
                except TransportError as error:
                    if not degrade:
                        raise
                    failed_now[index] = f"transport failure: {error}"
                return _FAILED

            waits = {
                index: guarded(index, lambda: traced_post(index, attempt))
                for index in runnable
            }
            for index, wait in waits.items():
                value = wait if wait is _FAILED else guarded(index, wait)
                if value is not _FAILED:
                    results[index] = value  # type: ignore[assignment]
            pending = sorted(failed_now)
            if not pending:
                break
            if attempt >= max_attempts:
                self._provider_failures += len(pending)
                failed.update(failed_now)
                break
            self._provider_retries += len(pending)
            if resilience.retry_backoff_seconds > 0:
                time.sleep(resilience.retry_backoff_seconds * (2 ** (attempt - 1)))
        return results

    def _check_survivors(
        self, survivors: dict[int, object], failed: dict[int, str], phase: str
    ) -> None:
        """Fail the batch when too few providers made it through a phase."""
        resilience = self.config.resilience
        minimum = (
            max(1, resilience.min_providers)
            if resilience.enabled
            else len(self.providers)
        )
        if len(survivors) >= minimum:
            return
        details = "; ".join(
            f"{self.providers[index].provider_id!r}: {failed[index]}"
            for index in sorted(failed)
        )
        raise ProtocolError(
            f"only {len(survivors)} of {len(self.providers)} providers survived "
            f"the {phase} phase (minimum {minimum}): {details}"
        )

    def _update_quarantine(self, failed: dict[int, str]) -> None:
        """Advance the consecutive-failure counters after a finished batch."""
        resilience = self.config.resilience
        for index in range(len(self.providers)):
            if index in self._quarantined:
                continue
            if index in failed:
                count = self._consecutive_failures.get(index, 0) + 1
                self._consecutive_failures[index] = count
                if (
                    resilience.quarantine_after is not None
                    and count >= resilience.quarantine_after
                ):
                    self._quarantined[index] = (
                        f"failed {count} consecutive batches"
                    )
            else:
                self._consecutive_failures[index] = 0
        if failed:
            self._degraded_batches += 1

    # -- protocol phases ---------------------------------------------------------

    def _send(
        self,
        payload_bytes: int,
        accounting: _QueryAccounting,
        *,
        copies: int = 1,
    ) -> None:
        cost = self.network.send(payload_bytes, copies=copies)
        accounting.messages += copies
        accounting.bytes_sent += copies * payload_bytes
        accounting.simulated_seconds += cost

    def _send_uniform(
        self,
        payload_bytes: int,
        accounting: Sequence[_QueryAccounting],
        *,
        copies_per_query: int = 1,
    ) -> None:
        """Send one same-size message per query (× ``copies_per_query``).

        One bulk :meth:`SimulatedNetwork.send` charges the network (its cost
        model is linear in copies, so the stats equal per-message sends), and
        each query's accounting receives its exact per-message share.
        """
        num_queries = len(accounting)
        self.network.send(payload_bytes, copies=copies_per_query * num_queries)
        cost = copies_per_query * self.network.config.transfer_cost(payload_bytes)
        payload = copies_per_query * payload_bytes
        for entry in accounting:
            entry.messages += copies_per_query
            entry.bytes_sent += payload
            entry.simulated_seconds += cost

    def _collect_summaries(
        self,
        requests: Sequence[QueryRequest],
        budget: QueryBudget,
        accounting: Sequence[_QueryAccounting],
        failed: dict[int, str],
    ) -> tuple[dict[int, list[SummaryMessage]], dict[int, list[bool]]]:
        """Summary lists plus cache-hit flags, keyed by provider index.

        Both dicts hold the providers that delivered the phase; providers
        that failed land in ``failed`` instead (resilience permitting).
        Inner lists are aligned with the request order; the flags mark
        summaries the provider re-served from its release cache.
        """
        active = [
            index for index in range(len(self.providers)) if index not in failed
        ]
        for index, request in enumerate(requests):
            self._send(request.payload_bytes(), accounting[index], copies=len(active))

        def post(index: int, attempt: int):
            return self._transport.post_summary(
                index, requests, budget.epsilon_allocation, attempt=attempt
            )

        outcomes = self._fanout_resilient("summary", active, post, failed)
        summaries = {index: messages for index, (messages, _) in outcomes.items()}
        reuse_flags = {index: reuse for index, (_, reuse) in outcomes.items()}
        for index in sorted(summaries):
            # Summaries have a data-independent constant size, so one bulk
            # send per responding provider covers the whole workload.
            if summaries[index]:
                self._send_uniform(summaries[index][0].payload_bytes(), accounting)
        return summaries, reuse_flags

    def _allocate(
        self,
        requests: Sequence[QueryRequest],
        summaries: dict[int, Sequence[SummaryMessage]],
        rate: float,
        accounting: Sequence[_QueryAccounting],
    ) -> dict[int, list[AllocationMessage]]:
        """Allocation lists keyed by provider index, aligned with requests.

        Allocation is solved over the providers that delivered summaries —
        a degraded batch re-spreads the sampling budget across the
        survivors, exactly as the protocol would with a smaller federation.
        """
        survivors = sorted(summaries)
        columns = [summaries[provider_index] for provider_index in survivors]
        sample_sizes = solve_allocation_batch(
            np.array([[s.noisy_cluster_count for s in column] for column in columns]).T,
            np.array([[s.noisy_avg_proportion for s in column] for column in columns]).T,
            rate,
            min_allocation=self.config.sampling.min_allocation,
        )
        per_provider: dict[int, list[AllocationMessage]] = {}
        for column, provider_index in enumerate(survivors):
            provider_id = self.providers[provider_index].provider_id
            per_provider[provider_index] = [
                AllocationMessage(
                    query_id=request.query_id,
                    provider_id=provider_id,
                    sample_size=sample_size,
                )
                for request, sample_size in zip(
                    requests, sample_sizes[:, column].tolist()
                )
            ]
        if survivors and per_provider[survivors[0]]:
            # Allocations have a constant size: one bulk send covers the
            # per-query messages to every surviving provider.
            self._send_uniform(
                per_provider[survivors[0]][0].payload_bytes(),
                accounting,
                copies_per_query=len(survivors),
            )
        return per_provider

    def _collect_answers(
        self,
        allocations: dict[int, Sequence[AllocationMessage]],
        budget: QueryBudget,
        use_smc: bool,
        accounting: Sequence[_QueryAccounting],
        failed: dict[int, str],
    ) -> tuple[
        dict[int, list[EstimateMessage]],
        dict[int, list[bool]],
        dict[int, list[ProviderDiagnostics]],
    ]:
        """Estimate lists, cache-hit flags and diagnostics, keyed by provider index.

        Same contract as :meth:`_collect_summaries`: only providers that
        delivered the phase appear; new failures land in ``failed``.  The
        diagnostics dict holds only the providers whose carrier handed them
        back (the in-process one).
        """
        provider_ids = {provider.provider_id for provider in self.providers}
        for provider_allocations in allocations.values():
            for message in provider_allocations:
                if message.provider_id not in provider_ids:
                    raise ProtocolError(f"unknown provider {message.provider_id!r}")

        active = sorted(allocations)

        def post(index: int, attempt: int):
            return self._transport.post_answer(
                index, allocations[index], budget, use_smc, attempt=attempt
            )

        outcomes = self._fanout_resilient("answer", active, post, failed)
        answers = {index: messages for index, (messages, _, _) in outcomes.items()}
        reuse_flags = {index: reuse for index, (_, reuse, _) in outcomes.items()}
        diagnostics = {
            index: local
            for index, (_, _, local) in outcomes.items()
            if local is not None
        }
        for index in sorted(answers):
            # Estimates have a data-independent constant size as well.
            if answers[index]:
                self._send_uniform(answers[index][0].payload_bytes(), accounting)
        return answers, reuse_flags, diagnostics

    def _combine(
        self,
        messages: Sequence[EstimateMessage],
        budget: QueryBudget,
        use_smc: bool,
        accounting: _QueryAccounting,
    ) -> tuple[float, float | None]:
        """``(combined value, noise the aggregator injected)`` of one query.

        Reads released messages only.  The plain path injects nothing here
        (``None``); what the providers added is a diagnostic, read by
        :meth:`settle_batch` where diagnostics exist.
        """
        if not use_smc:
            return float(sum(message.value for message in messages)), None

        smc = SMCSimulator(
            config=self.config.smc,
            num_parties=max(2, len(messages)),
            rng=derive_rng(self._rng, "smc"),
        )
        shared_estimates = [smc.share(message.value) for message in messages]
        shared_sensitivities = [smc.share(message.smooth_sensitivity) for message in messages]
        total = smc.reconstruct(smc.secure_sum(shared_estimates))
        max_sensitivity = smc.secure_max(shared_sensitivities)
        mechanism = LaplaceMechanism(
            epsilon=budget.epsilon_estimation,
            sensitivity=2.0 * max_sensitivity,
            rng=derive_rng(self._rng, "smc-noise"),
        )
        noise = float(mechanism.sample_noise())
        # Charge the SMC exchange to the simulated network so the trace shows it.
        self._send(smc.cost.bytes_exchanged, accounting)
        return float(total) + noise, noise
