"""Typed protocol messages exchanged between the aggregator and providers.

The whole point of the paper's collaboration method is that these messages
are tiny and their size is independent of the data: a query, two noisy
scalars per provider, one integer allocation per provider, and one noisy
estimate per provider.  Each message knows its approximate serialised size so
the simulated network can charge a realistic transfer cost.

This module is the exhaustive list of what may leave a provider: the
classes in :data:`ALL_MESSAGE_TYPES` plus the value types they carry
(``RangeQuery``, ``Interval``, ``QueryBudget``) are all the wire codec
(:mod:`repro.federation.transport`) knows how to build.  A provider's own
diagnostics (:class:`~repro.core.result.ProviderDiagnostics`) are not a
message; the codec refuses them.  See ``docs/protocol.md``, "Who sees
what".
"""

from __future__ import annotations

from dataclasses import dataclass

from ..query.model import RangeQuery

__all__ = [
    "QueryRequest",
    "SummaryMessage",
    "AllocationMessage",
    "EstimateMessage",
    "IngestRequest",
    "IngestAck",
    "ALL_MESSAGE_TYPES",
]

_SCALAR_BYTES = 8
_HEADER_BYTES = 16


@dataclass(frozen=True)
class QueryRequest:
    """Aggregator -> provider: the query and the requested sampling rate.

    ``seed_material`` optionally pins the query's noise stream: when set, the
    provider derives the per-query session RNG from its own stable stream key
    plus this material instead of drawing positionally from its root stream.
    The serving layer (:mod:`repro.service`) uses it to key each query's
    randomness by ``(tenant, tenant-local sequence)`` so answers do not depend
    on how tenants' submissions were coalesced into batches.

    ``trace_context`` carries the submitting span's ``(trace_id, span_id)``
    when tracing is enabled (see :mod:`repro.obs.trace`), so provider-side
    spans — behind a socket transport or inside a worker process —
    land in the same trace as the aggregator's.  It is observability
    metadata, not protocol payload: it stays ``None`` with tracing off and
    is excluded from :meth:`payload_bytes`, so the simulated communication
    accounting is identical with and without tracing.
    """

    query_id: int
    query: RangeQuery
    sampling_rate: float
    seed_material: tuple[int, ...] | None = None
    trace_context: tuple[str, str] | None = None

    def payload_bytes(self) -> int:
        """Approximate serialised size: header + one interval per dimension.

        Seed material is counted one byte per element: the elements are the
        tenant id's UTF-8 bytes plus one small sequence integer.
        """
        return (
            _HEADER_BYTES
            + 2 * _SCALAR_BYTES * self.query.num_dimensions
            + _SCALAR_BYTES
            + len(self.seed_material or ())
        )


@dataclass(frozen=True)
class SummaryMessage:
    """Provider -> aggregator: DP-noised ``N^Q`` and ``Avg(R̂)`` (Equation 5)."""

    query_id: int
    provider_id: str
    noisy_cluster_count: float
    noisy_avg_proportion: float

    def payload_bytes(self) -> int:
        """Two noisy scalars plus a header."""
        return _HEADER_BYTES + 2 * _SCALAR_BYTES


@dataclass(frozen=True)
class AllocationMessage:
    """Aggregator -> provider: the sample size granted to the provider."""

    query_id: int
    provider_id: str
    sample_size: int

    def payload_bytes(self) -> int:
        """One integer plus a header."""
        return _HEADER_BYTES + _SCALAR_BYTES


@dataclass(frozen=True)
class EstimateMessage:
    """Provider -> aggregator: the (noised or to-be-noised) local estimate.

    In the plain-DP configuration ``value`` already includes the provider's
    own Laplace noise and ``smooth_sensitivity`` is ``None``: the smooth
    sensitivity is a function of the drawn clusters (``1/p`` of the
    sample), nothing on the plain path needs it, and releasing it in the
    clear would be a second, un-noised statistic of the data.  In the SMC
    configuration the value and the sensitivity are secret-shared instead
    of sent in the clear (``secure_max`` needs the sensitivity); this
    message then carries only the shares destined to the aggregator.
    """

    query_id: int
    provider_id: str
    value: float
    smooth_sensitivity: float | None
    approximated: bool

    def payload_bytes(self) -> int:
        """The value, the sensitivity when it is sent, one flag, and a header."""
        scalars = 1 if self.smooth_sensitivity is None else 2
        return _HEADER_BYTES + scalars * _SCALAR_BYTES + 1


@dataclass(frozen=True)
class IngestRequest:
    """Ingest source -> provider: a batch of appended rows.

    Unlike the query-path messages, ingest payloads scale with the data:
    one scalar per cell crosses the (simulated) wire.  The simulated
    network accounts them under the separate ``"ingest"`` traffic class so
    Figure-1-style communication accounting of the query protocol stays
    honest when ingestion runs alongside it.
    """

    provider_id: str
    num_rows: int
    num_columns: int

    def payload_bytes(self) -> int:
        """Header plus one scalar per (row, column) cell."""
        return _HEADER_BYTES + _SCALAR_BYTES * self.num_rows * self.num_columns


@dataclass(frozen=True)
class IngestAck:
    """Provider -> ingest source: the post-append snapshot coordinates."""

    provider_id: str
    delta_watermark: int
    layout_epoch: int
    compacted: bool

    def payload_bytes(self) -> int:
        """Two scalars, one flag, and a header."""
        return _HEADER_BYTES + 2 * _SCALAR_BYTES + 1


ALL_MESSAGE_TYPES = (
    QueryRequest,
    SummaryMessage,
    AllocationMessage,
    EstimateMessage,
    IngestRequest,
    IngestAck,
)
"""Every protocol message class, in protocol order.

The wire codec (:mod:`repro.federation.transport`) must round-trip each of
these losslessly and builds nothing else of its own; the transport test
suite iterates this tuple so a new message class cannot be added without a
round-trip property test, and its wire-capture test fails on any class a
real drain puts on the wire that is not listed here."""
