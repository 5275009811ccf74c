"""Concurrent session scheduler: many tenants, one batched federation pass.

The protocol answers one analyst's workload at a time; a serving deployment
faces many concurrent tenants.  :class:`SessionScheduler` multiplexes them
onto one :class:`~repro.core.system.FederatedAQPSystem`:

* **Submission** — :meth:`SessionScheduler.submit` accepts a per-tenant list
  of queries, prices it with the :class:`~repro.cache.planner.ReusePlanner`'s
  sound upper bound, and admits it only when the bound fits the tenant's
  remaining budget (reserving the bound until the actual charge is known).
  Unaffordable work is rejected (:class:`~repro.errors.AdmissionError`) or
  deferred for re-pricing, per :class:`~repro.config.ServiceConfig`; a full
  pending queue sheds load with
  :class:`~repro.errors.ServiceOverloadedError` (backpressure).
* **Coalescing** — :meth:`SessionScheduler.drain` flattens the pending
  submissions in *canonical order* — ``(tenant_id, tenant-local submission
  sequence)``, independent of arrival interleaving — and chunks the combined
  workload into shared :class:`~repro.query.batch.QueryBatch`es of at most
  ``max_batch_size`` queries, amortising the metadata pass and the provider
  round-trips across tenants.
* **Dispatch** — batches execute FIFO on one dispatcher worker (the
  federation's providers are a shared, stateful resource; intra-batch
  parallelism comes from the ``"process"`` transport carrier's
  per-provider workers), with up to ``max_in_flight_batches`` batches in
  the pipeline so result routing overlaps the next batch's execution.
* **Settlement** — per-query actual charges come back from the engine
  (reuse-discounted, zero for fully cached queries), are grouped per
  submission, charged atomically to the owning tenant's wallet, and returned
  as :class:`TenantAnswer`s.
* **Ingestion** — :meth:`SessionScheduler.submit_ingest` queues appended
  rows (validated at the door; bounded by ``max_pending_ingest``, shedding
  load with :class:`~repro.errors.ServiceOverloadedError`);
  :meth:`SessionScheduler.drain` runs the queued ingests on the single
  dispatcher worker *after* the drain's query batches, FIFO — so writes
  (and any compaction they trigger) land where providers hold no per-query
  sessions, every batch of the drain sees the data its submissions were
  priced against, and the next drain's queries see the new rows.

Three latency levers sit on top of that baseline, all off by default and
all answer-preserving (they move *when* work runs, never what it returns):

* **Cost-model-driven chunking** — with
  :attr:`~repro.config.ServiceConfig.drain_time_budget_ms` set, every
  drain prices its admitted workload in work units with one
  :class:`~repro.service.costmodel.CostModel` pass (zone-map covering sets,
  covered-vs-straddler split) and packs it with
  :func:`~repro.federation.partitioning.work_balanced_chunks` so no chunk's
  *estimated* wall-clock exceeds the budget; ``max_batch_size`` remains a
  hard per-chunk cap.  The model calibrates itself against each chunk's
  measured seconds.  Admission prices *epsilon* at submit and *work* at
  drain: the estimate is read under the drain lock from the layout the
  chunks are about to run on, so a submission parked or left behind across
  an ingest or a compaction is never packed with the zone-map statistics of
  a layout that no longer exists.
* **Weighted-fair admission** — with per-tenant
  :attr:`~repro.service.tenants.Tenant.priority_class` weights (or
  :attr:`~repro.config.ServiceConfig.max_queries_per_drain` set), the drain
  picks submissions by deficit-weighted round robin
  (:func:`plan_weighted_admission`) instead of plain canonical order: a
  priority-``w`` tenant drains roughly ``w`` queries per contended slot for
  every priority-1 query, and an aging bound guarantees every submission
  drains within :attr:`~repro.config.ServiceConfig.starvation_limit`
  eligible drains regardless of weights.
* **Overlapped drain pipeline** — with
  :attr:`~repro.config.ServiceConfig.overlap_phases`, chunks run through
  the engine's phased API (:meth:`~repro.core.system.FederatedAQPSystem.
  begin_batch`): the dispatcher worker runs only the provider-facing
  summary/allocation and answer phases, while the combination math and
  settlement of chunk ``i`` run on the draining thread as the dispatcher
  already begins chunk ``i+1``'s summary phase.  (Ignored under SMC
  combination, whose aggregator-side RNG draws and network sends must stay
  on one thread.)

Determinism: every query's provider noise streams are keyed by
``(tenant, tenant-local sequence)`` (see
:meth:`~repro.service.tenants.Tenant.next_seed_token`), and coalescing order
is canonical — so under a fixed system seed, a tenant's answers are
bit-identical however its submissions interleave with other tenants', and
identical to running the tenant's workload alone, on every transport
carrier.  (With the release caches enabled, *charges* can
additionally drop when another tenant's traffic already released a repeated
predicate — that cross-tenant reuse is what keeps fleet-wide epsilon spend
sublinear in tenant count on overlapping workloads.)
"""

from __future__ import annotations

import math
import threading
import time
from collections import deque
from contextlib import nullcontext
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Sequence

from ..config import ServiceConfig
from ..core.accounting import query_spend, split_query_budget
from ..core.result import BatchResult, QueryResult
from ..core.system import FederatedAQPSystem, PhasedExecution
from ..errors import AdmissionError, ServiceError, ServiceOverloadedError
from ..federation.partitioning import work_balanced_chunks
from ..ingest.delta import IngestReceipt, validate_rows
from ..query.batch import QueryBatch
from ..query.model import RangeQuery
from ..storage.table import Table
from .costmodel import CostModel
from .tenants import Tenant, TenantRegistry

__all__ = [
    "SubmissionReceipt",
    "TenantAnswer",
    "LatencyHistogram",
    "ServiceStats",
    "AdmissionCandidate",
    "plan_weighted_admission",
    "SessionScheduler",
]


@dataclass(frozen=True)
class SubmissionReceipt:
    """What :meth:`SessionScheduler.submit` hands back immediately.

    ``status`` is ``"queued"`` for admitted work (its budget bound is
    reserved) or ``"deferred"`` for parked work awaiting re-pricing.
    """

    submission_id: int
    tenant_id: str
    num_queries: int
    status: str
    bound_epsilon: float
    bound_delta: float


@dataclass(frozen=True)
class TenantAnswer:
    """One completed submission routed back to its tenant.

    ``epsilon_charged`` / ``delta_charged`` are the *exact* amounts debited
    from this tenant's wallet for this submission — the sum of the per-query
    actuals after reuse, never more than the bound reserved at admission
    (barring the documented LRU-eviction corner, where the ledger still
    records the true spend).

    ``latency_seconds`` is the submission's settlement latency within its
    drain: seconds from the drain's start until this answer was charged and
    routed.  It is what the priority classes and the time budget shape —
    the answer values themselves are latency-independent.
    """

    tenant_id: str
    submission_id: int
    results: tuple[QueryResult, ...]
    epsilon_charged: float
    delta_charged: float
    latency_seconds: float = 0.0

    @property
    def num_queries(self) -> int:
        """Number of answered queries in the submission."""
        return len(self.results)

    @property
    def values(self) -> tuple[float, ...]:
        """The per-query DP answers, in submission order."""
        return tuple(result.value for result in self.results)

    @property
    def degraded(self) -> bool:
        """Whether any answer was produced by a partial federation."""
        return any(result.degraded for result in self.results)

    @property
    def providers_missing(self) -> tuple[str, ...]:
        """Union of provider ids missing from any answer (first-seen order)."""
        seen: dict[str, None] = {}
        for result in self.results:
            for provider_id in result.providers_missing:
                seen.setdefault(provider_id, None)
        return tuple(seen)


@dataclass
class LatencyHistogram:
    """Recorded latency samples with percentile accessors.

    Samples are kept exactly (serving runs are bounded, and the benchmarks
    want true percentiles, not bucketed approximations).  Percentiles use
    linear interpolation between order statistics, matching
    ``numpy.percentile``'s default.
    """

    samples: list[float] = field(default_factory=list)

    def record(self, seconds: float) -> None:
        """Add one sample (negative values are clamped to zero)."""
        self.samples.append(max(0.0, float(seconds)))

    @property
    def count(self) -> int:
        """Number of recorded samples."""
        return len(self.samples)

    @property
    def mean(self) -> float:
        """Arithmetic mean of the samples (zero when empty)."""
        if not self.samples:
            return 0.0
        return sum(self.samples) / len(self.samples)

    def percentile(self, q: float) -> float:
        """The ``q``-th percentile (``0 <= q <= 100``; zero when empty)."""
        if not 0.0 <= q <= 100.0:
            raise ServiceError(f"percentile must be in [0, 100], got {q}")
        if not self.samples:
            return 0.0
        ordered = sorted(self.samples)
        rank = (q / 100.0) * (len(ordered) - 1)
        low = math.floor(rank)
        high = math.ceil(rank)
        if low == high:
            return ordered[low]
        fraction = rank - low
        return ordered[low] * (1.0 - fraction) + ordered[high] * fraction

    @property
    def p50(self) -> float:
        """Median latency."""
        return self.percentile(50.0)

    @property
    def p95(self) -> float:
        """95th-percentile latency."""
        return self.percentile(95.0)

    @property
    def p99(self) -> float:
        """99th-percentile latency (the SLO gate's usual subject)."""
        return self.percentile(99.0)

    def as_dict(self) -> dict[str, float]:
        """Summary statistics (count/mean/percentiles), not the raw samples."""
        return {
            "count": self.count,
            "mean": self.mean,
            "p50": self.p50,
            "p95": self.p95,
            "p99": self.p99,
        }


@dataclass
class ServiceStats:
    """Cumulative serving-layer counters (monotone; read anytime).

    The latency block feeds SLO monitoring: ``drain_latency`` is per-drain
    wall-clock, ``submission_latency`` per-submission settlement latency
    within its drain (what :attr:`TenantAnswer.latency_seconds` carries),
    ``chunk_latency`` per-chunk execution seconds.  With a drain time
    budget set, ``chunk_predicted_seconds`` / ``chunk_actual_seconds``
    record the cost model's per-chunk prediction against the measurement
    (aligned pairs, dispatch order) and ``cost_prediction_error`` mirrors
    the model's relative-error EWMA.
    """

    submissions_accepted: int = 0
    submissions_rejected: int = 0
    submissions_deferred: int = 0
    submissions_force_admitted: int = 0
    queries_accepted: int = 0
    batches_dispatched: int = 0
    queries_dispatched: int = 0
    cross_tenant_batches: int = 0
    answers_delivered: int = 0
    degraded_queries: int = 0
    ingest_requests: int = 0
    rows_ingested: int = 0
    compactions: int = 0
    epsilon_charged: float = 0.0
    delta_charged: float = 0.0
    epsilon_by_tenant: dict[str, float] = field(default_factory=dict)
    wall_seconds: float = 0.0
    max_pending_seen: int = 0
    cost_prediction_error: float = 0.0
    chunk_predicted_seconds: list[float] = field(default_factory=list)
    chunk_actual_seconds: list[float] = field(default_factory=list)
    drain_latency: LatencyHistogram = field(default_factory=LatencyHistogram)
    submission_latency: LatencyHistogram = field(default_factory=LatencyHistogram)
    chunk_latency: LatencyHistogram = field(default_factory=LatencyHistogram)

    def _note_charge(self, tenant_id: str, epsilon: float, delta: float) -> None:
        self.epsilon_charged += epsilon
        self.delta_charged += delta
        self.epsilon_by_tenant[tenant_id] = (
            self.epsilon_by_tenant.get(tenant_id, 0.0) + epsilon
        )

    def as_dict(self) -> dict[str, float]:
        """Flat numeric view: scalar counters plus ``<histogram>_<stat>`` keys.

        Per-tenant and per-chunk collections are omitted — they are
        unbounded in cardinality; read them from the attributes directly.
        """
        out: dict[str, float] = {}
        for name in self.__dataclass_fields__:
            value = getattr(self, name)
            if isinstance(value, LatencyHistogram):
                for stat, number in value.as_dict().items():
                    out[f"{name}_{stat}"] = number
            elif isinstance(value, (int, float)):
                out[name] = value
        return out


@dataclass
class _Submission:
    """Internal bookkeeping of one accepted or deferred submission.

    ``drains_skipped`` counts eligible drains that left the submission
    behind under a query cap — the aging input of the weighted-fair planner.
    """

    submission_id: int
    tenant: Tenant
    order: int  # tenant-local submission sequence: the canonical sort key
    queries: tuple[RangeQuery, ...]
    seed_tokens: tuple[tuple[int, ...], ...]
    bound_epsilon: float = 0.0
    bound_delta: float = 0.0
    reserved: bool = False
    drains_skipped: int = 0
    trace_ctx: tuple[str, str] | None = None


@dataclass(frozen=True)
class AdmissionCandidate:
    """One pending submission as :func:`plan_weighted_admission` sees it."""

    tenant_id: str
    order: int
    num_queries: int
    priority_class: int = 1
    drains_skipped: int = 0


def plan_weighted_admission(
    candidates: Sequence[AdmissionCandidate],
    deficits: dict[str, float] | None = None,
    *,
    max_queries: int | None = None,
    starvation_limit: int = 8,
) -> tuple[list[int], list[int], dict[str, float]]:
    """Deficit-weighted fair pick order over pending submissions (pure).

    The scheduler's admission planner, separated from its locking and
    wallet plumbing so fairness properties can be tested directly.  Two
    stages:

    1. **Aging** — every candidate already skipped ``starvation_limit - 1``
       eligible drains is admitted unconditionally, in canonical
       ``(tenant_id, order)`` order, *before* the query cap is considered.
       This is the starvation bound: a submission drains at latest on its
       ``starvation_limit``-th eligible drain, whatever the weights.
    2. **Deficit round robin** — each backlogged tenant holds a deficit
       balance (carried in ``deficits`` across drains).  Per pick, every
       backlogged tenant earns its ``priority_class``; the tenant with the
       highest balance (ties to the smallest ``tenant_id``) admits its
       oldest pending submission and pays the submission's query count.  A
       priority-``w`` tenant therefore drains ``w`` queries per contended
       pick for every priority-1 query.  Picking stops once ``max_queries``
       total queries are admitted; the pick that crosses the cap is the
       drain's last (submissions are atomic, never split).

    Within a tenant, submissions always admit oldest-first — weights
    reorder tenants against each other, never a tenant against itself.

    Parameters
    ----------
    candidates:
        The pending submissions.  Candidates of the same tenant must share
        a ``priority_class`` (the scheduler guarantees this; the planner
        reads the weight from the tenant's oldest candidate).
    deficits:
        Balances carried from the previous drain (missing tenants start at
        zero).  Not mutated.
    max_queries:
        Cap on the drain's total admitted queries; ``None`` admits
        everything (the planner then only determines pick *order*).
    starvation_limit:
        The aging bound ``K`` (>= 1); ``K = 1`` admits everything in
        canonical order.

    Returns
    -------
    (picked, forced, carried)
        ``picked``: candidate indices in pick order (the drain's coalescing
        order).  ``forced``: the subset admitted by aging.  ``carried``:
        deficit balances to carry into the next drain — only tenants that
        still have pending candidates keep a balance (a drained tenant's
        deficit resets, the standard DRR idle rule).
    """
    if max_queries is not None and max_queries < 1:
        raise ServiceError(f"max_queries must be >= 1, got {max_queries}")
    if starvation_limit < 1:
        raise ServiceError(f"starvation_limit must be >= 1, got {starvation_limit}")
    for candidate in candidates:
        if candidate.num_queries < 1:
            raise ServiceError("candidates must contain at least one query")
        if candidate.priority_class < 1:
            raise ServiceError(
                f"priority_class must be >= 1, got {candidate.priority_class}"
            )
    canonical = sorted(
        range(len(candidates)),
        key=lambda i: (candidates[i].tenant_id, candidates[i].order),
    )
    queues: dict[str, deque[int]] = {}
    priority: dict[str, int] = {}
    for index in canonical:
        candidate = candidates[index]
        queues.setdefault(candidate.tenant_id, deque()).append(index)
        priority.setdefault(candidate.tenant_id, candidate.priority_class)
    balance = {
        tenant_id: (deficits or {}).get(tenant_id, 0.0) for tenant_id in queues
    }
    picked: list[int] = []
    forced: list[int] = []
    admitted_queries = 0

    def admit(index: int) -> None:
        nonlocal admitted_queries
        candidate = candidates[index]
        queues[candidate.tenant_id].remove(index)
        picked.append(index)
        balance[candidate.tenant_id] -= candidate.num_queries
        admitted_queries += candidate.num_queries

    for index in canonical:
        if candidates[index].drains_skipped >= starvation_limit - 1:
            forced.append(index)
            admit(index)

    while any(queues.values()):
        if max_queries is not None and admitted_queries >= max_queries:
            break
        active = sorted(tenant_id for tenant_id, queue in queues.items() if queue)
        for tenant_id in active:
            balance[tenant_id] += priority[tenant_id]
        best = min(active, key=lambda tenant_id: (-balance[tenant_id], tenant_id))
        admit(queues[best][0])

    carried = {
        tenant_id: balance[tenant_id]
        for tenant_id, queue in queues.items()
        if queue
    }
    return picked, forced, carried


class SessionScheduler:
    """Multiplexes per-tenant submissions onto one federated system.

    Parameters
    ----------
    system:
        The federation to serve.  Must not carry its own end-user budget —
        wallets live in the registry, one per tenant.
    registry:
        The tenant registry; tenants must be registered before submitting.
    config:
        Serving policy; defaults to the system's
        :attr:`~repro.config.SystemConfig.service`.
    """

    def __init__(
        self,
        system: FederatedAQPSystem,
        registry: TenantRegistry,
        *,
        config: ServiceConfig | None = None,
    ) -> None:
        if system.end_user_budget is not None:
            raise ServiceError(
                "a served system must not hold its own end-user budget; "
                "per-tenant budgets live in the TenantRegistry"
            )
        self.system = system
        self.registry = registry
        self.config = config or system.config.service
        self.stats = ServiceStats()
        self.cost_model = CostModel(system)
        # ``_lock`` guards the queues, the wallets (reserve / charge /
        # release), and the stats; ``_drain_lock`` serialises whole drains —
        # the federation's providers hold mutable protocol state, so two
        # dispatch pipelines must never interleave on them.
        self._lock = threading.Lock()
        self._drain_lock = threading.Lock()
        self._pending: list[_Submission] = []
        self._deferred: list[_Submission] = []
        self._pending_ingest: list[tuple[Table, int | None, Tenant | None]] = []
        self._next_submission_id = 0
        self._query_budget = split_query_budget(system.config.privacy)
        # Weighted-fair deficit balances carried across drains, per tenant.
        self._deficits: dict[str, float] = {}
        self._tracer = system.obs.tracer
        system.obs.metrics.register_group("service", lambda: self.stats.as_dict())

    def _end_trace(self, trace_ctx, **tags) -> None:
        """Close a ``begin_trace`` root if tracing is on (idempotent)."""
        if trace_ctx is not None and self._tracer is not None:
            self._tracer.end_span(trace_ctx, **tags)

    # -- admission --------------------------------------------------------------

    def _price(self, queries: Sequence[RangeQuery]) -> tuple[float, float]:
        """Sound upper bound of a submission's charge.

        With the release caches enabled the :class:`ReusePlanner` lowers the
        bound to zero for queries guaranteed to be served by post-processing;
        otherwise every query is bounded at its full federation spend.
        """
        if self.system.config.cache.enabled:
            plan = self.system.aggregator.plan_reuse(queries, self._query_budget)
            return plan.upper_bound
        spend = query_spend(self._query_budget, self.system.num_providers)
        return (len(queries) * spend.epsilon, len(queries) * spend.delta)

    def submit(
        self, tenant_id: str, queries: Sequence[RangeQuery | str]
    ) -> SubmissionReceipt:
        """Accept (or defer, or refuse) one tenant's workload.

        Only the *epsilon* bound is priced here.  The work estimate the
        time-budgeted packing needs reads provider metadata, which a
        concurrent drain may be compacting, so it is taken by :meth:`drain`
        under the drain lock — ``submit`` makes no cost-model call.

        Parameters
        ----------
        tenant_id:
            A registered tenant.
        queries:
            The workload: :class:`RangeQuery` objects or SQL texts.

        Returns
        -------
        SubmissionReceipt
            Queued or deferred acknowledgement; answers arrive from
            :meth:`drain`.

        Raises
        ------
        UnknownTenantError
            Unregistered ``tenant_id``.
        ServiceOverloadedError
            The bounded pending queue (or, for deferrals, the separately
            bounded deferred park) is full — backpressure: retry after a
            drain, or :meth:`discard_deferred`.
        AdmissionError
            The priced bound does not fit the tenant's remaining budget and
            the submission cannot be deferred — because the policy is
            ``"reject"``, or because the release caches are disabled, in
            which case the price can never drop and parking the work would
            only wedge the queue.  Atomic: nothing is queued, reserved, or
            charged.
        """
        if not queries:
            raise ServiceError("a submission must contain at least one query")
        tenant = self.registry.get(tenant_id)
        trace_ctx = (
            self._tracer.begin_trace(
                "submission", tenant=tenant_id, queries=len(queries)
            )
            if self._tracer is not None
            else None
        )
        with self._lock:
            # Cheap shed before any pricing work: when both queues are full
            # no submission can be accepted whatever it prices at.
            if (
                len(self._pending) >= self.config.max_pending
                and len(self._deferred) >= self.config.max_pending
            ):
                self._end_trace(trace_ctx, status="overloaded")
                raise ServiceOverloadedError(
                    f"pending queue and deferred park are both full "
                    f"({self.config.max_pending} submissions each); drain first"
                )
        range_queries = tuple(self.system._coerce_query(query) for query in queries)
        # Pricing peeks the release caches and may solve allocations — keep
        # it off the queue/wallet lock so concurrent settlement is never
        # blocked behind it.  The bound tolerates cache-state races by
        # design (see the planner's documented eviction corner); the
        # affordability check is re-taken under the lock before reserving.
        with (
            self._tracer.span("submission.pricing", parent=trace_ctx)
            if trace_ctx is not None
            else nullcontext()
        ):
            bound_epsilon, bound_delta = self._price(range_queries)
        with self._lock:
            ledger = self.system.obs.ledger
            if ledger is not None and tenant.budget.audit is None:
                tenant.budget.audit = ledger
                tenant.budget.audit_owner = tenant_id
            affordable = tenant.budget.can_admit(bound_epsilon, bound_delta)
            defer = (
                not affordable
                and self.config.admission == "defer"
                and self.system.config.cache.enabled
            )
            if not affordable and not defer:
                self.stats.submissions_rejected += 1
                self._end_trace(trace_ctx, status="rejected")
                raise AdmissionError(
                    f"tenant {tenant_id!r}: bound ({bound_epsilon}, {bound_delta}) "
                    f"exceeds remaining budget "
                    f"({tenant.remaining_epsilon}, {tenant.remaining_delta})"
                )
            # Pending and deferred are bounded separately: a tenant parking
            # never-affordable work can fill the deferred park, but it cannot
            # starve other tenants' admissible submissions.
            if affordable and len(self._pending) >= self.config.max_pending:
                self._end_trace(trace_ctx, status="overloaded")
                raise ServiceOverloadedError(
                    f"pending queue is full ({self.config.max_pending} submissions); "
                    "drain before submitting more"
                )
            if defer and len(self._deferred) >= self.config.max_pending:
                self._end_trace(trace_ctx, status="overloaded")
                raise ServiceOverloadedError(
                    f"deferred park is full ({self.config.max_pending} submissions); "
                    "drain (after budgets or caches changed) or discard_deferred()"
                )
            submission = _Submission(
                submission_id=self._next_submission_id,
                tenant=tenant,
                order=tenant.sequence,
                queries=range_queries,
                seed_tokens=tuple(tenant.next_seed_token() for _ in range_queries),
                bound_epsilon=bound_epsilon,
                bound_delta=bound_delta,
                trace_ctx=trace_ctx,
            )
            self._next_submission_id += 1
            if affordable:
                tenant.budget.reserve(bound_epsilon, bound_delta)
                submission.reserved = True
                self._pending.append(submission)
                self.stats.submissions_accepted += 1
                self.stats.queries_accepted += len(range_queries)
                status = "queued"
            else:
                self._deferred.append(submission)
                self.stats.submissions_deferred += 1
                status = "deferred"
            self.stats.max_pending_seen = max(
                self.stats.max_pending_seen, len(self._pending) + len(self._deferred)
            )
            return SubmissionReceipt(
                submission_id=submission.submission_id,
                tenant_id=tenant_id,
                num_queries=len(range_queries),
                status=status,
                bound_epsilon=bound_epsilon,
                bound_delta=bound_delta,
            )

    def submit_ingest(
        self,
        rows: Table,
        *,
        provider_index: int | None = None,
        tenant_id: str | None = None,
    ) -> int:
        """Queue a batch of rows for ingestion on the next drain.

        Ingest requests ride the same dispatcher as query batches: the next
        :meth:`drain` applies them after its batches, FIFO, where no
        per-query session is open — in-flight queries keep their pinned
        snapshots, admission pricing stays consistent with the data the
        drain's batches actually see, and a triggered compaction is always
        safe.  Rows are validated here, at the door, so one writer's
        malformed batch is refused with a client error instead of aborting
        other tenants' drain later.

        Parameters
        ----------
        rows:
            The appended rows (provider schema; row order is preserved).
        provider_index:
            Target one provider; by default rows are dealt round-robin
            across the federation (see
            :meth:`~repro.core.system.FederatedAQPSystem.ingest`).
        tenant_id:
            Optional attribution: the registered tenant whose
            :attr:`~repro.service.tenants.Tenant.rows_ingested` ledger the
            rows are counted against — credited when the rows actually
            land, not at submit.  Ingestion spends no privacy budget.

        Returns
        -------
        int
            The ingest queue depth after this request.

        Raises
        ------
        IngestError
            The rows do not match the federation schema or leave a
            dimension domain.
        ServiceOverloadedError
            The bounded ingest queue is full — backpressure; drain first.
        """
        if rows.num_rows == 0:
            raise ServiceError("an ingest request must contain at least one row")
        validate_rows(self.system.providers[0].table.schema, rows)
        tenant = self.registry.get(tenant_id) if tenant_id is not None else None
        with self._lock:
            if len(self._pending_ingest) >= self.config.max_pending_ingest:
                raise ServiceOverloadedError(
                    f"ingest queue is full ({self.config.max_pending_ingest} "
                    "requests); drain before submitting more"
                )
            self._pending_ingest.append((rows, provider_index, tenant))
            self.stats.ingest_requests += 1
            return len(self._pending_ingest)

    @property
    def num_pending_ingest(self) -> int:
        """Queued ingest requests awaiting the next drain."""
        with self._lock:
            return len(self._pending_ingest)

    @property
    def num_pending(self) -> int:
        """Admitted-but-undispatched submissions (deferred ones included)."""
        with self._lock:
            return len(self._pending) + len(self._deferred)

    @property
    def num_deferred(self) -> int:
        """Submissions parked by admission control, awaiting re-pricing."""
        with self._lock:
            return len(self._deferred)

    def transport_stats(self):
        """Real framed wire traffic the drains have put on the transport.

        Drains run over whatever transport the system was configured with
        (:class:`~repro.config.TransportConfig`); answers and epsilon
        charges are bit-identical across transports, so only these
        counters — and wall-clock — change when a deployment moves from
        in-process to loopback or sockets.
        """
        return self.system.transport_stats()

    def discard_deferred(self, tenant_id: str | None = None) -> int:
        """Drop parked submissions (all of them, or one tenant's).

        Deferred work holds no reservation, so discarding it only frees the
        park.  Returns the number of submissions dropped.
        """
        with self._lock:
            kept = [
                submission
                for submission in self._deferred
                if tenant_id is not None and submission.tenant.tenant_id != tenant_id
            ]
            dropped = len(self._deferred) - len(kept)
            self._deferred = kept
            return dropped

    # -- dispatch ---------------------------------------------------------------

    def drain(self) -> list[TenantAnswer]:
        """Coalesce, execute, and settle everything pending.

        Deferred submissions are re-priced first (in canonical order) and
        admitted when they now fit — a workload whose predicates were
        released by other tenants' traffic since it was parked prices lower
        on re-admission.  The admitted set is then flattened canonically,
        chunked to ``max_batch_size``, executed FIFO with a bounded
        dispatch pipeline (settlement of completed batches overlaps the
        execution of later ones), and charged per submission.  Queued
        ingest requests run on the same dispatcher *after* the drain's
        batches, FIFO — writes (and any compaction they trigger) land
        where no provider session is open, and never between a
        submission's admission pricing and its execution (an ingest
        advancing the watermark mid-drain could invalidate the cached
        releases a zero-priced submission was admitted on).

        Drains serialise on an internal lock: the federation's providers
        hold mutable protocol state, so only one dispatch pipeline runs at
        a time; :meth:`submit` stays concurrent with a running drain.

        If a batch fails mid-drain, the queries that *did* complete have
        already released their noise — their actual charges are recorded
        against the owning tenants before the exception propagates (the
        ledger never under-reports real privacy loss); unexecuted work
        only has its reservation returned.

        Returns
        -------
        list of TenantAnswer
            One answer per completed submission, in the drain's coalescing
            order — canonical ``(tenant_id, submission order)`` under
            uniform priorities (the default), weighted-fair pick order
            otherwise (within a tenant always oldest-first, so per-tenant
            answer order is canonical regardless).  Deferred submissions
            that still cannot fit stay parked; with
            ``max_queries_per_drain`` set, admitted work beyond the cap
            stays pending for the next drain.  Neither is in the list.
        """
        with self._drain_lock:
            drain_ctx = (
                self._tracer.begin_trace("drain")
                if self._tracer is not None
                else None
            )
            admitted: list[_Submission] = []
            try:
                with (
                    self._tracer.span("drain.admission", parent=drain_ctx)
                    if drain_ctx is not None
                    else nullcontext()
                ):
                    admitted = self._admit_for_drain()
                    costs = self._estimate_costs(admitted)
                with self._lock:
                    ingests = self._pending_ingest
                    self._pending_ingest = []
                if not admitted and not ingests:
                    return []
                return self._run_pipeline(
                    admitted, ingests, costs, drain_ctx=drain_ctx
                )
            finally:
                self._end_trace(drain_ctx, submissions=len(admitted))

    def _admit_for_drain(self) -> list[_Submission]:
        """Re-price the deferred park and pick the admitted set (locked)."""
        with self._lock:
            still_deferred: list[_Submission] = []
            for submission in sorted(
                self._deferred, key=lambda s: (s.tenant.tenant_id, s.order)
            ):
                bound_epsilon, bound_delta = self._price(submission.queries)
                if submission.tenant.budget.can_admit(bound_epsilon, bound_delta):
                    submission.tenant.budget.reserve(bound_epsilon, bound_delta)
                    submission.bound_epsilon = bound_epsilon
                    submission.bound_delta = bound_delta
                    submission.reserved = True
                    self._pending.append(submission)
                    self.stats.submissions_accepted += 1
                    self.stats.queries_accepted += len(submission.queries)
                else:
                    still_deferred.append(submission)
            self._deferred = still_deferred
            pending = self._pending
            self._pending = []
            if not pending:
                return []
            uniform = len({s.tenant.priority_class for s in pending}) == 1
            if (
                self.config.max_queries_per_drain is None
                and uniform
                and not self._deficits
                and all(s.drains_skipped == 0 for s in pending)
            ):
                # No cap, no weights in play, nothing carried over: plain
                # canonical coalescing, exactly the uncontended baseline.
                return sorted(pending, key=lambda s: (s.tenant.tenant_id, s.order))
            candidates = [
                AdmissionCandidate(
                    tenant_id=s.tenant.tenant_id,
                    order=s.order,
                    num_queries=len(s.queries),
                    priority_class=s.tenant.priority_class,
                    drains_skipped=s.drains_skipped,
                )
                for s in pending
            ]
            picked, forced, carried = plan_weighted_admission(
                candidates,
                self._deficits,
                max_queries=self.config.max_queries_per_drain,
                starvation_limit=self.config.starvation_limit,
            )
            self._deficits = carried
            self.stats.submissions_force_admitted += len(forced)
            chosen = set(picked)
            for index, submission in enumerate(pending):
                if index not in chosen:
                    # Left behind under the cap: reservation stays held,
                    # age advances (the planner's starvation bound input).
                    submission.drains_skipped += 1
                    self._pending.append(submission)
            return [pending[index] for index in picked]

    def _estimate_costs(self, admitted: Sequence[_Submission]) -> list[float]:
        """Work units of every admitted query, in pick order (one model call).

        Taken per drain, under the drain lock, where provider state is
        quiescent: compaction rewrites zone maps and occupancy and an ingest
        changes the delta volume every query scans, so an estimate is only
        good for the drain that reads it.  Empty without a time budget —
        nothing then packs by work.
        """
        if self.config.drain_time_budget_ms is None:
            return []
        return [
            estimate.units
            for estimate in self.cost_model.estimate(
                [query for submission in admitted for query in submission.queries]
            )
        ]

    def _run_pipeline(
        self,
        admitted: Sequence[_Submission],
        ingests: Sequence[tuple[Table, int | None, Tenant | None]] = (),
        flat_costs: Sequence[float] = (),
        *,
        drain_ctx: tuple[str, str] | None = None,
    ) -> list[TenantAnswer]:
        """Flatten in pick order, chunk, execute FIFO, settle as chunks land.

        One dispatcher worker keeps provider state and FIFO order sound;
        up to ``max_in_flight_batches`` work items queue ahead of it, so
        the drain thread settles batch ``i`` while the dispatcher executes
        batch ``i+1``.  With ``overlap_phases`` (non-SMC only) the chunks
        run through the phased engine API: the dispatcher runs just the
        provider-facing summary/allocation and answer phases, and the
        combination math moves into this thread's settlement — the
        dispatcher begins chunk ``i+1``'s summary while chunk ``i``
        combines and settles here.  Ingest requests are work items on the
        same dispatcher, queued after every batch of the drain — no
        provider session is open there (a triggered compaction is safe),
        and no batch executes against data newer than what its submissions
        were priced on.

        With ``drain_time_budget_ms`` set, chunk boundaries come from
        :func:`~repro.federation.partitioning.work_balanced_chunks` over
        ``flat_costs`` — this drain's per-query unit estimates, aligned
        with the flattened workload (``max_batch_size`` stays a hard cap) —
        and every executed chunk's measurement is fed back into the model's
        calibration.
        """
        drain_started = time.perf_counter()
        flat_queries: list[RangeQuery] = []
        flat_tokens: list[tuple[int, ...]] = []
        flat_tenants: list[str] = []
        offsets = [0]
        for submission in admitted:
            flat_queries.extend(submission.queries)
            flat_tokens.extend(submission.seed_tokens)
            flat_tenants.extend([submission.tenant.tenant_id] * len(submission.queries))
            offsets.append(offsets[-1] + len(submission.queries))
        # Chunk boundaries as (start, stop) index ranges over the flattened
        # workload: count-chunking by default, work packing under a time
        # budget (boundaries only ever move, order never changes).
        with (
            self._tracer.span(
                "drain.chunking", parent=drain_ctx, queries=len(flat_queries)
            )
            if drain_ctx is not None
            else nullcontext()
        ):
            if flat_costs:
                budget_units = (
                    self.config.drain_time_budget_ms / 1000.0
                ) / self.cost_model.seconds_per_unit
                groups = work_balanced_chunks(
                    list(range(len(flat_queries))),
                    flat_costs,
                    budget_units,
                    max_size=self.config.max_batch_size,
                )
                boundaries = [(group[0], group[-1] + 1) for group in groups]
            else:
                size = self.config.max_batch_size
                boundaries = [
                    (start, min(start + size, len(flat_queries)))
                    for start in range(0, len(flat_queries), size)
                ]
        chunks: list[
            tuple[QueryBatch, list[tuple[int, ...]], set[str], float | None]
        ] = []
        for start, stop in boundaries:
            predicted = sum(flat_costs[start:stop]) if flat_costs else None
            chunks.append(
                (
                    QueryBatch(tuple(flat_queries[start:stop])),
                    flat_tokens[start:stop],
                    set(flat_tenants[start:stop]),
                    predicted,
                )
            )
        # Batches first, then the queued ingests (FIFO): a drain with no
        # query work just applies the ingests.
        work: list[tuple[str, tuple]] = [("batch", entry) for entry in chunks]
        work.extend(("ingest", entry) for entry in ingests)
        # Phase overlap is unavailable under SMC combination: the secure
        # exchange draws from the aggregator's RNG and sends on the shared
        # network, both of which must stay on the dispatcher thread.
        overlap = self.config.overlap_phases and not self.system.config.use_smc_for_result

        def chunk_span(name: str, **tags):
            # Opened on the dispatcher thread: parenting under the drain
            # root sets that thread's span context, so the engine's batch
            # phase spans (and everything below them) land in the drain's
            # trace rather than starting traces of their own.
            if drain_ctx is None:
                return nullcontext()
            return self._tracer.span(name, parent=drain_ctx, **tags)

        def run(chunk: QueryBatch, tokens: list[tuple[int, ...]]) -> BatchResult:
            with chunk_span("drain.chunk", queries=len(chunk)):
                return self.system.execute_batch(
                    chunk.queries,
                    compute_exact=self.config.compute_exact,
                    seed_tokens=tokens,
                )

        def run_phased(
            chunk: QueryBatch, tokens: list[tuple[int, ...]]
        ) -> PhasedExecution:
            with chunk_span("drain.chunk", queries=len(chunk), overlapped=True):
                phased = self.system.begin_batch(
                    chunk.queries,
                    compute_exact=self.config.compute_exact,
                    seed_tokens=tokens,
                )
                try:
                    phased.collect()
                except BaseException:
                    # collect() already released the sessions on its own
                    # failure paths; abandon() is idempotent and covers any
                    # gap between begin and collect.
                    phased.abandon()
                    raise
                return phased

        def run_ingest(
            rows: Table, provider_index: int | None, tenant: Tenant | None
        ) -> tuple[list[IngestReceipt | None], Tenant | None]:
            with chunk_span("drain.ingest", rows=rows.num_rows):
                return self.system.ingest(rows, provider_index=provider_index), tenant

        results_flat: list[QueryResult] = []
        answers: list[TenantAnswer] = []
        settled = 0  # submissions fully settled (pick-order prefix)

        def absorb_batch(batch_result: BatchResult, predicted: float | None) -> None:
            nonlocal settled
            results_flat.extend(batch_result.results)
            with self._lock:
                self.stats.wall_seconds += batch_result.wall_seconds
                self.stats.chunk_latency.record(batch_result.wall_seconds)
                if predicted is not None:
                    # Error is judged against the pre-update scale — what
                    # the packing actually predicted at dispatch.
                    self.stats.chunk_predicted_seconds.append(
                        self.cost_model.predicted_seconds(predicted)
                    )
                    self.stats.chunk_actual_seconds.append(batch_result.wall_seconds)
                    self.cost_model.observe(predicted, batch_result.wall_seconds)
                    self.stats.cost_prediction_error = self.cost_model.prediction_error
                while settled < len(admitted) and len(results_flat) >= offsets[settled + 1]:
                    submission = admitted[settled]
                    answers.append(
                        self._settle_submission(
                            submission,
                            tuple(results_flat[offsets[settled] : offsets[settled + 1]]),
                            latency_seconds=time.perf_counter() - drain_started,
                        )
                    )
                    settled += 1

        def absorb_ingest(
            outcome: tuple[Sequence[IngestReceipt | None], Tenant | None]
        ) -> None:
            receipts, tenant = outcome
            with self._lock:
                for receipt in receipts:
                    if receipt is None:
                        continue
                    self.stats.rows_ingested += receipt.rows
                    # Attribution happens when the rows actually land, so a
                    # failed or aborted drain never inflates the ledger.
                    if tenant is not None:
                        tenant.rows_ingested += receipt.rows
                    if receipt.compacted:
                        self.stats.compactions += 1

        def absorb(kind: str, future: Future, predicted: float | None) -> None:
            if kind == "batch":
                outcome = future.result()
                if overlap:
                    # The combination phase runs here, on the drain thread,
                    # while the dispatcher is already deep in the next
                    # chunk's provider phases.
                    outcome = outcome.settle()
                absorb_batch(outcome, predicted)
            else:
                absorb_ingest(future.result())

        in_flight: deque[tuple[str, Future, float | None]] = deque()
        try:
            with ThreadPoolExecutor(max_workers=1) as dispatcher:
                try:
                    for kind, payload in work:
                        while len(in_flight) >= self.config.max_in_flight_batches:
                            absorb(*in_flight.popleft())
                        if kind == "batch":
                            chunk, tokens, tenants, predicted = payload
                            runner = run_phased if overlap else run
                            in_flight.append(
                                (
                                    "batch",
                                    dispatcher.submit(runner, chunk, tokens),
                                    predicted,
                                )
                            )
                            self.stats.batches_dispatched += 1
                            self.stats.queries_dispatched += len(chunk)
                            if len(tenants) > 1:
                                self.stats.cross_tenant_batches += 1
                        else:
                            rows, provider_index, tenant = payload
                            in_flight.append(
                                (
                                    "ingest",
                                    dispatcher.submit(
                                        run_ingest, rows, provider_index, tenant
                                    ),
                                    None,
                                )
                            )
                    while in_flight:
                        absorb(*in_flight.popleft())
                except BaseException:
                    # Stop the pipeline: queued work is cancelled; one item
                    # may already be running on the dispatcher — if it
                    # completes, its releases (or appended rows) happened
                    # too and must be absorbed before the accounting below.
                    for _, future, _ in in_flight:
                        future.cancel()
                    for kind, future, predicted in in_flight:
                        if not future.cancelled():
                            try:
                                absorb(kind, future, predicted)
                            except BaseException:
                                pass
                    raise
        except BaseException:
            self._abort(admitted, offsets, results_flat, settled)
            raise
        with self._lock:
            self.stats.drain_latency.record(time.perf_counter() - drain_started)
        return answers

    def _settle_submission(
        self,
        submission: _Submission,
        results: tuple[QueryResult, ...],
        latency_seconds: float = 0.0,
    ) -> TenantAnswer:
        """Charge one completed submission's actuals (caller holds the lock)."""
        tenant = submission.tenant
        charges = [
            (
                result.epsilon_spent,
                result.delta_spent,
                f"{tenant.tenant_id}/{submission.submission_id}: "
                + result.query.to_sql(),
            )
            for result in results
        ]
        # The noisy releases already happened; record the true actuals
        # unconditionally (same rationale as the system facade) and only
        # then hand the admission reservation back.
        with (
            self._tracer.span(
                "submission.settle",
                parent=submission.trace_ctx,
                tenant=tenant.tenant_id,
            )
            if submission.trace_ctx is not None and self._tracer is not None
            else nullcontext()
        ):
            total = tenant.budget.charge_spends(
                charges,
                enforce=False,
                degraded=[result.degraded for result in results],
            )
            tenant.budget.release(submission.bound_epsilon, submission.bound_delta)
        submission.reserved = False
        self.stats._note_charge(tenant.tenant_id, total.epsilon, total.delta)
        self.stats.answers_delivered += 1
        degraded = sum(1 for result in results if result.degraded)
        if degraded:
            # Degraded answers settle through the very same path — the
            # reservation/charge arithmetic needs no special case because
            # the per-query actuals already price only the delivered
            # releases — but they are counted so operators can see them.
            self.stats.degraded_queries += degraded
            tenant.degraded_queries += degraded
        self.stats.submission_latency.record(latency_seconds)
        self._end_trace(
            submission.trace_ctx,
            status="settled",
            epsilon=total.epsilon,
            delta=total.delta,
            degraded=degraded,
        )
        return TenantAnswer(
            tenant_id=tenant.tenant_id,
            submission_id=submission.submission_id,
            results=results,
            epsilon_charged=total.epsilon,
            delta_charged=total.delta,
            latency_seconds=max(0.0, latency_seconds),
        )

    def _abort(
        self,
        admitted: Sequence[_Submission],
        offsets: Sequence[int],
        results_flat: Sequence[QueryResult],
        settled: int,
    ) -> None:
        """Account a failed drain honestly before the exception propagates.

        Queries that completed before the failure released real noise: their
        actual spends are charged to the owning tenants (a partially
        answered submission is charged for exactly its answered prefix —
        under-reporting real privacy loss is never an option).  Every
        unsettled reservation is returned; completed-but-unsettled answers
        are discarded, since their submissions never finish.
        """
        with self._lock:
            for index in range(settled, len(admitted)):
                submission = admitted[index]
                tenant = submission.tenant
                answered = results_flat[offsets[index] : offsets[index + 1]]
                if answered:
                    charges = [
                        (
                            result.epsilon_spent,
                            result.delta_spent,
                            f"{tenant.tenant_id}/{submission.submission_id} "
                            "(failed drain): " + result.query.to_sql(),
                        )
                        for result in answered
                    ]
                    total = tenant.budget.charge_spends(
                        charges,
                        enforce=False,
                        degraded=[result.degraded for result in answered],
                    )
                    self.stats._note_charge(
                        tenant.tenant_id, total.epsilon, total.delta
                    )
                if submission.reserved:
                    tenant.budget.release(
                        submission.bound_epsilon, submission.bound_delta
                    )
                    submission.reserved = False
                self._end_trace(submission.trace_ctx, status="aborted")

    # -- convenience ------------------------------------------------------------

    def serve(
        self, submissions: Sequence[tuple[str, Sequence[RangeQuery | str]]]
    ) -> list[TenantAnswer]:
        """Submit many ``(tenant_id, queries)`` pairs and drain once."""
        for tenant_id, queries in submissions:
            self.submit(tenant_id, queries)
        return self.drain()
