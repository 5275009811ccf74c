"""Query results and execution traces.

A :class:`QueryResult` carries the DP answer plus everything needed by the
evaluation harness: the exact answer (when the caller asked for it), what
each provider released, timing per phase, work counters (clusters/rows
scanned vs. available), message/communication accounting and the noise that
was injected.  Keeping the trace attached to the result is what lets the
benchmark harness regenerate every figure from a single protocol run.

What a provider contributed comes in two records that must not be confused:

* :class:`ProviderRelease` — a function of the messages the aggregator
  holds anyway (the allocation it granted, the estimate it received).  It
  exists on every transport carrier.
* :class:`ProviderDiagnostics` — the provider's own view of its answer: the
  estimate before noise, the noise, the exact covering count, the work it
  did.  These numbers undo the release, so they never leave the provider:
  the wire codec refuses them, and only the in-process carrier (where the
  provider object *is* in the caller's process) hands them back.  Over a
  wire they are simply absent.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Mapping

from ..query.model import RangeQuery

__all__ = [
    "ProviderRelease",
    "ProviderDiagnostics",
    "ExecutionTrace",
    "QueryResult",
    "BatchResult",
]


@dataclass(frozen=True)
class ProviderRelease:
    """What one provider released for a query, as the aggregator saw it.

    Built by the aggregator from the ``AllocationMessage`` it sent and the
    ``EstimateMessage`` it received, so it holds nothing the protocol did
    not already put on the wire.
    """

    provider_id: str
    allocation: int
    approximated: bool
    released_value: float


@dataclass(frozen=True)
class ProviderDiagnostics:
    """One provider's local, un-released account of its answer to a query.

    ``released_value`` of the matching :class:`ProviderRelease` equals
    ``local_estimate + local_noise``.  ``exact_local_answer`` is set on the
    exact path (fewer than ``N_min`` covering clusters) only.  Never
    serialised: the wire codec raises on it.
    """

    provider_id: str
    local_estimate: float
    local_noise: float
    smooth_sensitivity: float
    covering_clusters: int
    sampled_clusters: int
    rows_scanned: int
    rows_available: int
    exact_local_answer: int | None = None


@dataclass
class ExecutionTrace:
    """Work, timing, communication, and reuse accounting for one query.

    ``summary_cache_hits`` / ``answer_cache_hits`` count the providers that
    served the respective release from their cross-query release cache (see
    :mod:`repro.cache`).  For cache hits the work counters
    (``clusters_scanned`` / ``rows_scanned``) carry the numbers of the
    *original* release — re-serving it scanned nothing.

    The three provider work counters (``clusters_scanned``,
    ``rows_scanned``, ``rows_available``) are read from
    :class:`ProviderDiagnostics`, so behind a wire carrier they stay ``0`` —
    always an ``int``, never ``None``, because callers sum them (the
    end-to-end benchmark folds them into its per-layer rows, which
    therefore read 0 on its socket workload by design).
    """

    phase_seconds: dict[str, float] = field(default_factory=dict)
    simulated_network_seconds: float = 0.0
    messages_sent: int = 0
    bytes_sent: int = 0
    clusters_scanned: int = 0
    clusters_available: int = 0
    rows_scanned: int = 0
    rows_available: int = 0
    smc_operations: int = 0
    summary_cache_hits: int = 0
    answer_cache_hits: int = 0

    @property
    def total_seconds(self) -> float:
        """Total wall-clock time across phases plus simulated network time."""
        return sum(self.phase_seconds.values()) + self.simulated_network_seconds

    @property
    def work_fraction(self) -> float:
        """Fraction of available rows actually scanned (deterministic work)."""
        if self.rows_available == 0:
            return 0.0
        return self.rows_scanned / self.rows_available


@dataclass
class QueryResult:
    """Final answer of one federated query with its full trace.

    ``provider_diagnostics`` (aligned with ``provider_releases``) and, on
    the plain path, ``noise_injected`` exist only where the providers share
    the caller's process; behind a wire carrier both are ``None``.  Under
    SMC the single noise is drawn by the aggregator, so ``noise_injected``
    is known on every carrier.
    """

    query: RangeQuery
    value: float
    epsilon_spent: float
    delta_spent: float
    used_smc: bool
    provider_releases: tuple[ProviderRelease, ...]
    trace: ExecutionTrace
    exact_value: int | None = None
    noise_injected: float | None = None
    degraded: bool = False
    providers_missing: tuple[str, ...] = ()
    provider_diagnostics: tuple[ProviderDiagnostics, ...] | None = None

    @property
    def relative_error(self) -> float | None:
        """``|exact - estimate| / exact`` when the exact answer is known."""
        if self.exact_value is None:
            return None
        if self.exact_value == 0:
            return None if self.value == 0 else float("inf")
        return abs(self.exact_value - self.value) / abs(self.exact_value)

    @property
    def absolute_error(self) -> float | None:
        """``|exact - estimate|`` when the exact answer is known."""
        if self.exact_value is None:
            return None
        return abs(self.exact_value - self.value)

    def phase_breakdown(self) -> Mapping[str, float]:
        """Per-phase wall-clock timings."""
        return dict(self.trace.phase_seconds)

    def summary(self) -> str:
        """One-line human-readable summary (used by the examples)."""
        parts = [f"answer={self.value:.1f}", f"eps={self.epsilon_spent:.3f}"]
        if self.exact_value is not None:
            parts.append(f"exact={self.exact_value}")
            error = self.relative_error
            if error is not None and error != float("inf"):
                parts.append(f"rel_err={100 * error:.2f}%")
        parts.append(f"clusters={self.trace.clusters_scanned}/{self.trace.clusters_available}")
        if self.degraded:
            parts.append(f"degraded(missing={','.join(self.providers_missing)})")
        return " ".join(parts)


@dataclass(frozen=True)
class BatchResult:
    """Per-query results of one batched execution plus aggregate accounting.

    The privacy budget is charged once per query (exactly as in sequential
    execution); ``wall_seconds`` is the end-to-end wall-clock of the whole
    batch, which is what the throughput metric divides by.
    """

    results: tuple[QueryResult, ...]
    wall_seconds: float

    def __post_init__(self) -> None:
        if not self.results:
            raise ValueError("a batch result needs at least one query result")

    def __len__(self) -> int:
        return len(self.results)

    def __iter__(self) -> Iterator[QueryResult]:
        return iter(self.results)

    def __getitem__(self, index: int) -> QueryResult:
        return self.results[index]

    @property
    def num_queries(self) -> int:
        """Number of queries answered by the batch."""
        return len(self.results)

    @property
    def values(self) -> tuple[float, ...]:
        """The per-query DP answers, in workload order."""
        return tuple(result.value for result in self.results)

    @property
    def epsilon_spent(self) -> float:
        """Total epsilon charged across the workload (one charge per query)."""
        return sum(result.epsilon_spent for result in self.results)

    @property
    def delta_spent(self) -> float:
        """Total delta charged across the workload."""
        return sum(result.delta_spent for result in self.results)

    @property
    def total_rows_scanned(self) -> int:
        """Rows scanned across all queries and providers."""
        return sum(result.trace.rows_scanned for result in self.results)

    @property
    def total_clusters_scanned(self) -> int:
        """Clusters scanned across all queries and providers."""
        return sum(result.trace.clusters_scanned for result in self.results)

    @property
    def queries_per_second(self) -> float:
        """Batch throughput: queries answered per wall-clock second."""
        if self.wall_seconds <= 0:
            return float("inf")
        return len(self.results) / self.wall_seconds

    # -- reuse accounting -------------------------------------------------------

    @property
    def summary_cache_hits(self) -> int:
        """Provider summary releases served from cache across the workload."""
        return sum(result.trace.summary_cache_hits for result in self.results)

    @property
    def answer_cache_hits(self) -> int:
        """Provider answer releases served from cache across the workload."""
        return sum(result.trace.answer_cache_hits for result in self.results)

    @property
    def answer_cache_hit_rate(self) -> float:
        """Fraction of (query, provider) answers served by reuse."""
        slots = sum(len(result.provider_releases) for result in self.results)
        if slots == 0:
            return 0.0
        return self.answer_cache_hits / slots

    @property
    def fully_cached_queries(self) -> int:
        """Queries that consumed zero budget (every release was reused)."""
        return sum(
            1
            for result in self.results
            if result.epsilon_spent == 0.0 and result.delta_spent == 0.0
        )

    # -- degradation accounting -------------------------------------------------

    @property
    def degraded(self) -> bool:
        """Whether any query was answered without the full federation."""
        return any(result.degraded for result in self.results)

    @property
    def degraded_queries(self) -> int:
        """Queries answered by a partial federation (missing providers)."""
        return sum(1 for result in self.results if result.degraded)

    @property
    def providers_missing(self) -> tuple[str, ...]:
        """Union of provider ids missing from any query, in first-seen order."""
        seen: dict[str, None] = {}
        for result in self.results:
            for provider_id in result.providers_missing:
                seen.setdefault(provider_id, None)
        return tuple(seen)
