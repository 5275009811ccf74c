"""Configuration dataclasses shared across the library.

The paper exposes a small number of system-level knobs:

* the privacy budget ``(epsilon, delta)`` per query and its split across the
  three protocol phases (``hp1 + hp2 + hp3 = 1`` — Section 5.4),
* the sampling rate ``sr`` and the per-provider approximation threshold
  ``N_min`` (Section 5.2),
* the common maximum cluster size ``S`` shared by all providers (Section 7),
* the simulated network / SMC cost model (Section 6.1 hardware).

Each knob lives in a dedicated frozen dataclass validated at construction so
invalid settings fail fast with a :class:`~repro.errors.ConfigurationError`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Mapping

from .errors import ConfigurationError
from .testing.faults import FaultSchedule

__all__ = [
    "PrivacyConfig",
    "SamplingConfig",
    "NetworkConfig",
    "SMCConfig",
    "ResilienceConfig",
    "CacheConfig",
    "ServiceConfig",
    "IngestConfig",
    "TransportConfig",
    "ObservabilityConfig",
    "SystemConfig",
    "DEFAULT_PRIVACY",
    "DEFAULT_SAMPLING",
    "DEFAULT_NETWORK",
    "DEFAULT_SMC",
    "DEFAULT_RESILIENCE",
    "DEFAULT_CACHE",
    "DEFAULT_SERVICE",
    "DEFAULT_INGEST",
    "DEFAULT_TRANSPORT",
    "DEFAULT_OBSERVABILITY",
    "DEFAULT_SYSTEM",
]


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ConfigurationError(message)


@dataclass(frozen=True)
class PrivacyConfig:
    """Per-query privacy budget and its split across protocol phases.

    Attributes
    ----------
    epsilon:
        Total epsilon consumed by one query.
    delta:
        Failure probability of the smooth-sensitivity release.
    hp_allocation:
        Fraction of ``epsilon`` spent publishing the allocation summaries
        (``N^Q`` and ``Avg(R̂)``) — the paper's ``hp1`` (default 0.1).
    hp_sampling:
        Fraction spent by the Exponential Mechanism cluster sampler — ``hp2``
        (default 0.1).
    hp_estimation:
        Fraction spent releasing the final estimate — ``hp3`` (default 0.8).
    """

    epsilon: float = 1.0
    delta: float = 1e-3
    hp_allocation: float = 0.1
    hp_sampling: float = 0.1
    hp_estimation: float = 0.8

    def __post_init__(self) -> None:
        _require(self.epsilon > 0, f"epsilon must be > 0, got {self.epsilon}")
        _require(0 < self.delta < 1, f"delta must be in (0, 1), got {self.delta}")
        for name in ("hp_allocation", "hp_sampling", "hp_estimation"):
            value = getattr(self, name)
            _require(0 < value < 1, f"{name} must be in (0, 1), got {value}")
        total = self.hp_allocation + self.hp_sampling + self.hp_estimation
        _require(
            math.isclose(total, 1.0, rel_tol=0, abs_tol=1e-9),
            f"hp_allocation + hp_sampling + hp_estimation must equal 1, got {total}",
        )

    @property
    def epsilon_allocation(self) -> float:
        """Budget ``eps_O`` spent on the allocation-phase summaries."""
        return self.hp_allocation * self.epsilon

    @property
    def epsilon_sampling(self) -> float:
        """Budget ``eps_S`` spent by the Exponential Mechanism sampler."""
        return self.hp_sampling * self.epsilon

    @property
    def epsilon_estimation(self) -> float:
        """Budget ``eps_E`` spent releasing the final estimate."""
        return self.hp_estimation * self.epsilon

    def with_epsilon(self, epsilon: float) -> "PrivacyConfig":
        """Return a copy with a different total epsilon (same split)."""
        return replace(self, epsilon=epsilon)

    def split(self) -> Mapping[str, float]:
        """Return the per-phase epsilon budgets as a mapping."""
        return {
            "allocation": self.epsilon_allocation,
            "sampling": self.epsilon_sampling,
            "estimation": self.epsilon_estimation,
        }


@dataclass(frozen=True)
class SamplingConfig:
    """Sampling-rate and approximation-threshold settings.

    Attributes
    ----------
    sampling_rate:
        Fraction ``sr`` of the query-covering clusters processed in total
        across the federation (strictly between 0 and 1).
    min_clusters_for_approximation:
        The paper's ``N_min``: a provider answers exactly (no sampling) when
        fewer than this many of its clusters cover the query.
    min_allocation:
        Lower bound on the per-provider sample size when it does approximate
        (the paper constrains ``s_i ∈ ]1, N^Q_i[``; we use an integer floor).
    """

    sampling_rate: float = 0.1
    min_clusters_for_approximation: int = 4
    min_allocation: int = 1

    def __post_init__(self) -> None:
        _require(
            0 < self.sampling_rate < 1,
            f"sampling_rate must be in (0, 1), got {self.sampling_rate}",
        )
        _require(
            self.min_clusters_for_approximation >= 1,
            "min_clusters_for_approximation must be >= 1, got "
            f"{self.min_clusters_for_approximation}",
        )
        _require(
            self.min_allocation >= 1,
            f"min_allocation must be >= 1, got {self.min_allocation}",
        )

    def with_rate(self, sampling_rate: float) -> "SamplingConfig":
        """Return a copy with a different sampling rate."""
        return replace(self, sampling_rate=sampling_rate)


@dataclass(frozen=True)
class NetworkConfig:
    """Cost model for the simulated federation network.

    Costs are expressed in seconds and are charged by the simulated network
    for every message: ``latency + payload_bytes / bandwidth``.
    """

    latency_seconds: float = 1e-3
    bandwidth_bytes_per_second: float = 125e6  # 1 Gbps
    enabled: bool = True

    def __post_init__(self) -> None:
        _require(
            self.latency_seconds >= 0,
            f"latency_seconds must be >= 0, got {self.latency_seconds}",
        )
        _require(
            self.bandwidth_bytes_per_second > 0,
            "bandwidth_bytes_per_second must be > 0, got "
            f"{self.bandwidth_bytes_per_second}",
        )

    def transfer_cost(self, payload_bytes: int) -> float:
        """Simulated cost in seconds of sending ``payload_bytes`` once."""
        if not self.enabled:
            return 0.0
        return self.latency_seconds + payload_bytes / self.bandwidth_bytes_per_second


@dataclass(frozen=True)
class SMCConfig:
    """Cost model for the simulated secure multiparty computation layer.

    The per-element costs are deliberately large relative to plain messages:
    secret-sharing one value requires one share per party plus interactive
    rounds, which is what makes row-sharing under SMC so expensive in the
    paper's Figure 1.
    """

    share_cost_seconds: float = 2e-4
    reconstruct_cost_seconds: float = 2e-4
    secure_addition_cost_seconds: float = 1e-6
    secure_comparison_cost_seconds: float = 1e-3
    bytes_per_share: int = 32
    field_bits: int = 61
    fixed_point_fraction_bits: int = 20

    def __post_init__(self) -> None:
        for name in (
            "share_cost_seconds",
            "reconstruct_cost_seconds",
            "secure_addition_cost_seconds",
            "secure_comparison_cost_seconds",
        ):
            _require(getattr(self, name) >= 0, f"{name} must be >= 0")
        _require(self.bytes_per_share > 0, "bytes_per_share must be > 0")
        _require(8 <= self.field_bits <= 63, "field_bits must be in [8, 63]")
        _require(
            0 <= self.fixed_point_fraction_bits < self.field_bits,
            "fixed_point_fraction_bits must be in [0, field_bits)",
        )


@dataclass(frozen=True)
class ResilienceConfig:
    """Graceful-degradation policy of the federated drain path.

    Disabled (the default), any provider failure fails the whole batch
    exactly as before — the seed behaviour.  Enabled, the aggregator
    retries failed provider phase calls with bounded backoff (the process
    carrier respawns a dead worker from its existing shared-memory blocks
    on the retry), quarantines providers that keep failing, and settles the
    batch with **partial** answers: the per-query results carry ``degraded`` /
    ``providers_missing`` and are charged exactly what the surviving (and
    partially-released) providers actually spent.

    Attributes
    ----------
    enabled:
        Master switch for graceful degradation.
    provider_timeout_seconds:
        How long the socket and process carriers wait for one provider's
        phase reply before giving the connection up — the process carrier
        kills the hung worker (``None`` waits forever).  It applies whether
        or not degradation is enabled.  The in-process and loopback
        carriers cannot preempt a provider; injected hangs are accounted
        as immediate timeouts there.
    max_retries:
        Failed phase calls per provider and batch retried at most this
        many times (0 disables retry).
    retry_backoff_seconds:
        Sleep before the first retry, doubling per further retry
        (0 retries immediately — the right setting for tests).
    quarantine_after:
        Consecutive failed *batches* after which a provider is
        quarantined — skipped outright (reported missing) by later
        batches until :meth:`~repro.federation.aggregator.Aggregator.reinstate`.
        ``None`` never quarantines.
    min_providers:
        Fewest surviving providers a batch may settle with; fewer fails
        the batch (and the drain) outright.
    """

    enabled: bool = False
    provider_timeout_seconds: float | None = 30.0
    max_retries: int = 1
    retry_backoff_seconds: float = 0.0
    quarantine_after: int | None = 3
    min_providers: int = 1

    def __post_init__(self) -> None:
        if self.provider_timeout_seconds is not None:
            _require(
                self.provider_timeout_seconds > 0,
                "provider_timeout_seconds must be > 0 or None, got "
                f"{self.provider_timeout_seconds}",
            )
        _require(self.max_retries >= 0, f"max_retries must be >= 0, got {self.max_retries}")
        _require(
            self.retry_backoff_seconds >= 0,
            f"retry_backoff_seconds must be >= 0, got {self.retry_backoff_seconds}",
        )
        if self.quarantine_after is not None:
            _require(
                self.quarantine_after >= 1,
                f"quarantine_after must be >= 1, got {self.quarantine_after}",
            )
        _require(
            self.min_providers >= 1,
            f"min_providers must be >= 1, got {self.min_providers}",
        )

    def with_enabled(self, enabled: bool = True) -> "ResilienceConfig":
        """Return a copy with degradation switched on or off."""
        return replace(self, enabled=enabled)


@dataclass(frozen=True)
class CacheConfig:
    """Cross-query summary-cache policy (see :mod:`repro.cache`).

    Every data provider owns a :class:`~repro.cache.store.ReleaseCache` that
    memoizes its *released* DP artifacts — the noisy allocation summaries and
    the noisy local estimates.  Re-serving a released value is differential
    privacy post-processing, so a cache hit consumes **no** privacy budget
    and skips the sampling / cluster-scan work entirely.

    Parameters
    ----------
    enabled:
        Master switch.  Disabled by default: with the cache off the engine
        is bit-identical to the plain batched protocol under the same seed.
    max_entries:
        Capacity per provider cache; the least recently used entry is
        evicted beyond it.
    ttl_rounds:
        Optional time-to-live measured in protocol rounds (one summary
        phase = one round).  ``None`` means entries never expire by age;
        layout changes still invalidate them via the epoch check.
    min_epsilon:
        Epsilon-aware admission floor: releases whose phase budget is below
        this are not admitted (their reuse value rarely justifies pinning a
        very noisy release).  The cache *key* additionally embeds the exact
        per-phase epsilons, so a hit is only ever served at precisely the
        budget of the original release.
    """

    enabled: bool = False
    max_entries: int = 4096
    ttl_rounds: int | None = None
    min_epsilon: float = 0.0

    def __post_init__(self) -> None:
        _require(self.max_entries >= 1, f"max_entries must be >= 1, got {self.max_entries}")
        if self.ttl_rounds is not None:
            _require(
                self.ttl_rounds >= 1, f"ttl_rounds must be >= 1, got {self.ttl_rounds}"
            )
        _require(
            self.min_epsilon >= 0, f"min_epsilon must be >= 0, got {self.min_epsilon}"
        )

    def with_enabled(self, enabled: bool = True) -> "CacheConfig":
        """Return a copy with the cache switched on or off."""
        return replace(self, enabled=enabled)


@dataclass(frozen=True)
class ServiceConfig:
    """Multi-tenant serving-layer policy (see :mod:`repro.service`).

    Controls how the :class:`~repro.service.scheduler.SessionScheduler`
    multiplexes per-tenant submissions onto the batched engine.

    Attributes
    ----------
    max_batch_size:
        Upper bound on the number of queries coalesced into one shared
        :class:`~repro.query.batch.QueryBatch`.  Larger batches amortise the
        metadata pass and provider round-trips over more tenants; the cap
        bounds per-batch latency and peak kernel footprint.
    max_pending:
        Bound of the submission queue.  Applies separately to the admitted
        pending queue and to the deferred park, so parked never-affordable
        work cannot starve other tenants' admissible submissions.  A full
        queue makes ``submit`` raise
        :class:`~repro.errors.ServiceOverloadedError` — load-shedding
        backpressure instead of unbounded memory growth.
    max_in_flight_batches:
        Depth of the dispatch pipeline: how many coalesced batches may be
        queued on the dispatcher worker at once.  Batch *execution* is FIFO
        on that single worker (the federation's providers are a shared,
        stateful resource; intra-batch parallelism comes from the
        ``"process"`` transport carrier); the look-ahead lets settlement —
        wallet charging and answer routing — of completed batches overlap
        the execution of later ones.
    admission:
        What to do with a submission whose priced upper bound does not fit
        the tenant's remaining budget: ``"reject"`` raises
        :class:`~repro.errors.AdmissionError` at submit time; ``"defer"``
        parks the submission and re-prices it on later drains (a workload
        can become affordable once its predicates are served by the release
        caches — with the caches disabled the price can never drop, so
        unaffordable work is rejected even under ``"defer"``).
    max_pending_ingest:
        Bound of the ingest request queue
        (:meth:`~repro.service.scheduler.SessionScheduler.submit_ingest`).
        A full queue raises :class:`~repro.errors.ServiceOverloadedError`,
        the same load-shedding backpressure the query queues apply —
        ingest bursts cannot grow memory without bound while drains lag.
    compute_exact:
        Also run the exact plain-text baselines for served queries (off by
        default: serving traffic wants throughput, not error measurement).
    drain_time_budget_ms:
        Per-chunk latency SLO for time-budgeted autopartitioning.  When set,
        a drain packs its coalesced workload greedily by the cost model's
        per-query estimates so no chunk's predicted wall-clock exceeds the
        budget (``max_batch_size`` stays a hard cap on top); answers settle
        at chunk granularity, so one expensive low-selectivity query no
        longer drags a whole fixed-size chunk of cheap ones with it.  The
        default ``None`` keeps count-only chunking — bit-for-bit today's
        behavior.
    max_queries_per_drain:
        Per-drain admission cap in queries.  When set, a drain admits at
        most this many queries (whole submissions; the last admitted
        submission may overshoot) in weighted-fair order and leaves the
        rest pending for later drains — bounded drains are what make tenant
        priorities meaningful.  ``None`` (default) drains everything.
    starvation_limit:
        Hard bound ``K`` on queueing fairness: a submission passed over by
        ``K - 1`` consecutive drains is force-admitted ahead of everything
        else on the next one, whatever its tenant's priority or deficit —
        every submission drains within ``K`` drains of being admitted.
    overlap_phases:
        Dispatch each chunk as two pipelined work items (summary+allocation,
        then answering) and run result combination on the settling thread,
        so the summary phase of chunk ``i+1`` executes on the dispatcher
        while chunk ``i`` combines and settles.  Answers are bit-identical
        to the serial path (per-tenant noise streams are keyed, not
        positional).  Off by default: the serial path routes through
        :meth:`~repro.core.system.FederatedAQPSystem.execute_batch`
        unchanged.
    """

    max_batch_size: int = 64
    max_pending: int = 1024
    max_in_flight_batches: int = 2
    admission: str = "reject"
    max_pending_ingest: int = 256
    compute_exact: bool = False
    drain_time_budget_ms: float | None = None
    max_queries_per_drain: int | None = None
    starvation_limit: int = 8
    overlap_phases: bool = False

    def __post_init__(self) -> None:
        _require(
            self.max_batch_size >= 1,
            f"max_batch_size must be >= 1, got {self.max_batch_size}",
        )
        _require(
            self.max_pending >= 1, f"max_pending must be >= 1, got {self.max_pending}"
        )
        _require(
            self.max_in_flight_batches >= 1,
            f"max_in_flight_batches must be >= 1, got {self.max_in_flight_batches}",
        )
        _require(
            self.admission in ("reject", "defer"),
            f'admission must be "reject" or "defer", got {self.admission!r}',
        )
        _require(
            self.max_pending_ingest >= 1,
            f"max_pending_ingest must be >= 1, got {self.max_pending_ingest}",
        )
        _require(
            self.drain_time_budget_ms is None or self.drain_time_budget_ms > 0,
            f"drain_time_budget_ms must be positive when set, "
            f"got {self.drain_time_budget_ms}",
        )
        _require(
            self.max_queries_per_drain is None or self.max_queries_per_drain >= 1,
            f"max_queries_per_drain must be >= 1 when set, "
            f"got {self.max_queries_per_drain}",
        )
        _require(
            self.starvation_limit >= 1,
            f"starvation_limit must be >= 1, got {self.starvation_limit}",
        )

    def with_admission(self, admission: str) -> "ServiceConfig":
        """Return a copy with a different admission policy."""
        return replace(self, admission=admission)

    def with_max_batch_size(self, max_batch_size: int) -> "ServiceConfig":
        """Return a copy with a different coalescing cap."""
        return replace(self, max_batch_size=max_batch_size)

    def with_drain_time_budget_ms(
        self, drain_time_budget_ms: float | None
    ) -> "ServiceConfig":
        """Return a copy with a different per-chunk latency SLO."""
        return replace(self, drain_time_budget_ms=drain_time_budget_ms)

    def with_overlap_phases(self, overlap_phases: bool = True) -> "ServiceConfig":
        """Return a copy with the phase-overlapped drain pipeline toggled."""
        return replace(self, overlap_phases=overlap_phases)


@dataclass(frozen=True)
class IngestConfig:
    """Streaming-ingestion policy (see :mod:`repro.ingest`).

    Every data provider owns a :class:`~repro.ingest.delta.DeltaStore` — an
    append buffer absorbing new rows while queries keep being answered from
    epoch-pinned snapshots.  A :class:`~repro.ingest.compaction.CompactionPolicy`
    built from this config decides when the buffered deltas are folded into
    the clustered layout (incrementally: only the affected tail clusters are
    re-clustered, the metadata index is patched in place, and only genuinely
    stale release-cache entries are purged).

    Attributes
    ----------
    auto_compact:
        Fold deltas automatically as soon as the thresholds below trip (and
        no per-query sessions are open).  Disabled, compaction only happens
        through an explicit :meth:`~repro.federation.provider.DataProvider.compact`.
    max_delta_rows:
        Compact once the delta buffer holds at least this many rows.
    max_delta_fraction:
        Optional second trigger: compact once the delta holds more than this
        fraction of the clustered rows (useful for small providers where an
        absolute row threshold would let the unclustered share grow
        unboundedly relative to the main table).
    """

    auto_compact: bool = True
    max_delta_rows: int = 4096
    max_delta_fraction: float | None = None

    def __post_init__(self) -> None:
        _require(
            self.max_delta_rows >= 1,
            f"max_delta_rows must be >= 1, got {self.max_delta_rows}",
        )
        if self.max_delta_fraction is not None:
            _require(
                0 < self.max_delta_fraction <= 1,
                f"max_delta_fraction must be in (0, 1], got {self.max_delta_fraction}",
            )

    def with_auto_compact(self, auto_compact: bool) -> "IngestConfig":
        """Return a copy with automatic compaction switched on or off."""
        return replace(self, auto_compact=auto_compact)

    def with_max_delta_rows(self, max_delta_rows: int) -> "IngestConfig":
        """Return a copy with a different row-count compaction trigger."""
        return replace(self, max_delta_rows=max_delta_rows)


@dataclass(frozen=True)
class TransportConfig:
    """How protocol messages travel between the aggregator and providers.

    Attributes
    ----------
    kind:
        ``"inprocess"`` (direct calls, the default), ``"loopback"`` (full
        serialize/frame/deserialize round trip without sockets),
        ``"socket"`` (blocking TCP on localhost with length-prefixed
        framing), or ``"process"`` (one persistent worker process per
        provider over shared-memory column buffers; release its workers
        with the system's ``close()`` / context manager).  All four are
        bit-identical under a fixed seed; see
        :mod:`repro.federation.transport`.
    shard_workers:
        Target number of shards each logical provider's table is split
        into (:class:`~repro.federation.shard.ShardedProvider`); ``1``
        keeps the plain unsharded provider.  Sharded answers are
        bit-identical to unsharded ones for any value.
    max_frame_bytes:
        Per-frame size ceiling for the serializing transports; a frame
        announcing a larger payload is rejected with a typed
        :class:`~repro.errors.TransportError` instead of being buffered.
    connect_timeout_seconds:
        Socket-transport connection/startup timeout.  (Per-call timeouts
        come from :attr:`ResilienceConfig.provider_timeout_seconds`.)
    """

    kind: str = "inprocess"
    shard_workers: int = 1
    max_frame_bytes: int = 8 * 2**20
    connect_timeout_seconds: float = 5.0

    def __post_init__(self) -> None:
        _require(
            self.kind in ("inprocess", "loopback", "socket", "process"),
            f"transport kind must be 'inprocess', 'loopback', 'socket', or "
            f"'process', got {self.kind!r}",
        )
        _require(
            self.shard_workers >= 1,
            f"shard_workers must be >= 1, got {self.shard_workers}",
        )
        _require(
            self.max_frame_bytes >= 1024,
            f"max_frame_bytes must be >= 1024, got {self.max_frame_bytes}",
        )
        _require(
            self.connect_timeout_seconds > 0,
            f"connect_timeout_seconds must be > 0, got {self.connect_timeout_seconds}",
        )

    def with_kind(self, kind: str) -> "TransportConfig":
        """Return a copy using a different transport implementation."""
        return replace(self, kind=kind)

    def with_shard_workers(self, shard_workers: int) -> "TransportConfig":
        """Return a copy with a different per-provider shard target."""
        return replace(self, shard_workers=shard_workers)


@dataclass(frozen=True)
class ObservabilityConfig:
    """Tracing / metrics / budget-audit policy (see :mod:`repro.obs`).

    Attributes
    ----------
    enabled:
        Master switch.  Disabled (the default), the system carries no
        tracer and no audit ledger — every instrumentation hook
        short-circuits on one ``is None`` check, keeping answers, charges,
        and wire bytes bit-identical to the uninstrumented system.  The
        pull-based metrics registry exists either way (it reads existing
        stats objects only at snapshot time).
    trace_sample_rate:
        Fraction of traces kept, decided at trace start by a deterministic
        counter hash — **never** an RNG draw, so sampling can never shift
        a noise stream.  Descendant spans of an unsampled trace are
        skipped wholesale.
    ring_capacity:
        Maximum finished spans retained in the in-memory ring buffer;
        older spans fall off.
    """

    enabled: bool = False
    trace_sample_rate: float = 1.0
    ring_capacity: int = 65536

    def __post_init__(self) -> None:
        _require(
            0.0 <= self.trace_sample_rate <= 1.0,
            f"trace_sample_rate must be in [0, 1], got {self.trace_sample_rate}",
        )
        _require(
            self.ring_capacity >= 1,
            f"ring_capacity must be >= 1, got {self.ring_capacity}",
        )

    def with_enabled(self, enabled: bool = True) -> "ObservabilityConfig":
        """Return a copy with observability switched on or off."""
        return replace(self, enabled=enabled)

    def with_sample_rate(self, trace_sample_rate: float) -> "ObservabilityConfig":
        """Return a copy with a different head-sampling rate."""
        return replace(self, trace_sample_rate=trace_sample_rate)


@dataclass(frozen=True)
class SystemConfig:
    """Top-level configuration of the federated AQP system.

    ``injected_faults`` is an optional
    :class:`~repro.testing.faults.FaultSchedule` of scripted failures
    (chaos testing).  ``None`` — the default — injects nothing and leaves
    every hot path untouched.  With a schedule installed, the aggregator
    consumes it deterministically: the same schedule and system seed
    replay the same failure trace bit-identically on every transport.
    """

    cluster_size: int = 1000
    num_providers: int = 4
    privacy: PrivacyConfig = field(default_factory=PrivacyConfig)
    sampling: SamplingConfig = field(default_factory=SamplingConfig)
    network: NetworkConfig = field(default_factory=NetworkConfig)
    smc: SMCConfig = field(default_factory=SMCConfig)
    resilience: ResilienceConfig = field(default_factory=ResilienceConfig)
    cache: CacheConfig = field(default_factory=CacheConfig)
    service: ServiceConfig = field(default_factory=ServiceConfig)
    ingest: IngestConfig = field(default_factory=IngestConfig)
    transport: TransportConfig = field(default_factory=TransportConfig)
    observability: ObservabilityConfig = field(default_factory=ObservabilityConfig)
    use_smc_for_result: bool = False
    seed: int | None = None
    injected_faults: FaultSchedule | None = None

    def __post_init__(self) -> None:
        _require(self.cluster_size >= 1, f"cluster_size must be >= 1, got {self.cluster_size}")
        _require(self.num_providers >= 1, f"num_providers must be >= 1, got {self.num_providers}")
        if self.seed is not None:
            _require(self.seed >= 0, f"seed must be >= 0, got {self.seed}")
        _require(
            self.injected_faults is None
            or isinstance(self.injected_faults, FaultSchedule),
            "injected_faults must be a FaultSchedule or None, got "
            f"{type(self.injected_faults).__name__}",
        )

    def with_privacy(self, privacy: PrivacyConfig) -> "SystemConfig":
        """Return a copy with a different privacy configuration."""
        return replace(self, privacy=privacy)

    def with_sampling(self, sampling: SamplingConfig) -> "SystemConfig":
        """Return a copy with a different sampling configuration."""
        return replace(self, sampling=sampling)

    def with_cache(self, cache: CacheConfig) -> "SystemConfig":
        """Return a copy with a different summary-cache policy."""
        return replace(self, cache=cache)

    def with_resilience(self, resilience: ResilienceConfig) -> "SystemConfig":
        """Return a copy with a different graceful-degradation policy."""
        return replace(self, resilience=resilience)

    def with_service(self, service: ServiceConfig) -> "SystemConfig":
        """Return a copy with a different serving-layer policy."""
        return replace(self, service=service)

    def with_ingest(self, ingest: IngestConfig) -> "SystemConfig":
        """Return a copy with a different streaming-ingestion policy."""
        return replace(self, ingest=ingest)

    def with_transport(self, transport: TransportConfig) -> "SystemConfig":
        """Return a copy with a different provider-boundary transport."""
        return replace(self, transport=transport)

    def with_observability(
        self, observability: ObservabilityConfig
    ) -> "SystemConfig":
        """Return a copy with a different observability policy."""
        return replace(self, observability=observability)


DEFAULT_PRIVACY = PrivacyConfig()
DEFAULT_SAMPLING = SamplingConfig()
DEFAULT_NETWORK = NetworkConfig()
DEFAULT_SMC = SMCConfig()
DEFAULT_RESILIENCE = ResilienceConfig()
DEFAULT_CACHE = CacheConfig()
DEFAULT_SERVICE = ServiceConfig()
DEFAULT_INGEST = IngestConfig()
DEFAULT_TRANSPORT = TransportConfig()
DEFAULT_OBSERVABILITY = ObservabilityConfig()
DEFAULT_SYSTEM = SystemConfig()
