"""Simulated network with message/byte accounting and a latency model.

The simulator does not actually move bytes; it records every send and charges
``latency + bytes / bandwidth`` seconds of *simulated* time, which the
execution trace reports separately from wall-clock compute time.  This keeps
the communication-volume effects visible (Figure 1 is entirely about them)
while the whole federation runs in one process.

Traffic is accounted per **message class**: the query protocol's messages
(``"query"`` — requests, summaries, allocations, estimates, SMC exchanges)
and the streaming-ingestion path's messages (``"ingest"`` — appended row
batches and their acks) are counted separately, so the paper's
communication-volume comparisons stay meaningful when ingest runs alongside
query traffic.  The top-level counters remain the all-traffic totals.

The network is also a fault-injection point: when the owning aggregator
installs a :class:`~repro.testing.faults.FaultInjector` (see
:attr:`~repro.config.SystemConfig.injected_faults`), a send may be hit
by a ``delay_message`` fault (extra simulated latency) or a ``drop_message``
fault — the lost copy is charged, counted in ``messages_dropped``, and
retransmitted once (counted in ``messages_retried``).  Drops and retries
keep the totals honest: a dropped-and-resent message costs two sends on the
wire, and the per-class split still sums back to the totals.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..config import NetworkConfig
from ..errors import FederationError

__all__ = ["NetworkStats", "SimulatedNetwork", "MESSAGE_CLASSES"]

MESSAGE_CLASSES = ("query", "ingest")
"""Traffic classes the simulated network accounts separately."""


@dataclass
class NetworkStats:
    """Counters accumulated by a :class:`SimulatedNetwork`.

    ``messages`` / ``bytes_sent`` / ``simulated_seconds`` are all-traffic
    totals; the ``ingest_*`` fields hold the ingest class's share, and the
    ``query_*`` properties derive the query-protocol share as the
    difference, so the split always sums back to the totals.

    ``messages_dropped`` / ``messages_retried`` count injected-fault losses
    and their retransmissions (zero outside chaos runs).  A dropped copy
    and its retry are *both* included in ``messages`` — they both crossed
    the wire — so totals stay consistent with the per-send costs.

    The serializing transports (:mod:`repro.federation.transport`) account
    their *real* framed wire traffic with this same class: there,
    ``messages``/``bytes_sent`` count frames and framed bytes, and
    ``frames_duplicated`` counts reply frames delivered more than once and
    discarded by the receiver's sequence check.
    """

    messages: int = 0
    bytes_sent: int = 0
    simulated_seconds: float = 0.0
    messages_dropped: int = 0
    messages_retried: int = 0
    frames_duplicated: int = 0
    ingest_messages: int = 0
    ingest_bytes_sent: int = 0
    ingest_simulated_seconds: float = 0.0
    ingest_messages_dropped: int = 0
    ingest_messages_retried: int = 0

    @property
    def query_messages(self) -> int:
        """Messages carried for the query protocol (total minus ingest)."""
        return self.messages - self.ingest_messages

    @property
    def query_bytes_sent(self) -> int:
        """Bytes carried for the query protocol (total minus ingest)."""
        return self.bytes_sent - self.ingest_bytes_sent

    @property
    def query_simulated_seconds(self) -> float:
        """Simulated seconds spent on query-protocol traffic."""
        return self.simulated_seconds - self.ingest_simulated_seconds

    @property
    def query_messages_dropped(self) -> int:
        """Query-protocol messages lost to injected faults (total minus ingest)."""
        return self.messages_dropped - self.ingest_messages_dropped

    @property
    def query_messages_retried(self) -> int:
        """Query-protocol retransmissions after injected drops."""
        return self.messages_retried - self.ingest_messages_retried

    def merge(self, other: "NetworkStats") -> "NetworkStats":
        """Return the element-wise sum of two stats objects."""
        return NetworkStats(
            messages=self.messages + other.messages,
            bytes_sent=self.bytes_sent + other.bytes_sent,
            simulated_seconds=self.simulated_seconds + other.simulated_seconds,
            messages_dropped=self.messages_dropped + other.messages_dropped,
            messages_retried=self.messages_retried + other.messages_retried,
            frames_duplicated=self.frames_duplicated + other.frames_duplicated,
            ingest_messages=self.ingest_messages + other.ingest_messages,
            ingest_bytes_sent=self.ingest_bytes_sent + other.ingest_bytes_sent,
            ingest_simulated_seconds=self.ingest_simulated_seconds
            + other.ingest_simulated_seconds,
            ingest_messages_dropped=self.ingest_messages_dropped
            + other.ingest_messages_dropped,
            ingest_messages_retried=self.ingest_messages_retried
            + other.ingest_messages_retried,
        )

    def as_dict(self) -> dict[str, float]:
        """Plain-dict form (for JSON benchmark records), split included."""
        return {
            "messages": self.messages,
            "bytes_sent": self.bytes_sent,
            "simulated_seconds": self.simulated_seconds,
            "messages_dropped": self.messages_dropped,
            "messages_retried": self.messages_retried,
            "frames_duplicated": self.frames_duplicated,
            "query_messages": self.query_messages,
            "query_bytes_sent": self.query_bytes_sent,
            "query_simulated_seconds": self.query_simulated_seconds,
            "query_messages_dropped": self.query_messages_dropped,
            "query_messages_retried": self.query_messages_retried,
            "ingest_messages": self.ingest_messages,
            "ingest_bytes_sent": self.ingest_bytes_sent,
            "ingest_simulated_seconds": self.ingest_simulated_seconds,
            "ingest_messages_dropped": self.ingest_messages_dropped,
            "ingest_messages_retried": self.ingest_messages_retried,
        }


@dataclass
class SimulatedNetwork:
    """Charges a latency/bandwidth cost for every message sent through it.

    ``fault_injector`` is installed by an aggregator whose
    :class:`~repro.config.SystemConfig` carries a fault schedule;
    ``None`` (the default) leaves every send untouched.
    """

    config: NetworkConfig = field(default_factory=NetworkConfig)
    stats: NetworkStats = field(default_factory=NetworkStats)
    fault_injector: object | None = field(default=None, repr=False, compare=False)

    def send(
        self, payload_bytes: int, *, copies: int = 1, message_class: str = "query"
    ) -> float:
        """Record sending a payload (optionally to several recipients).

        ``message_class`` selects the accounting bucket (``"query"`` or
        ``"ingest"``); totals always accumulate.  Returns the simulated
        transfer time in seconds for the whole send, including any
        injected delay or drop-and-retransmit penalty.
        """
        if payload_bytes < 0:
            raise FederationError(f"payload_bytes must be >= 0, got {payload_bytes}")
        if copies < 1:
            raise FederationError(f"copies must be >= 1, got {copies}")
        if message_class not in MESSAGE_CLASSES:
            raise FederationError(
                f"message_class must be one of {MESSAGE_CLASSES}, got {message_class!r}"
            )
        dropped = retried = 0
        extra_cost = 0.0
        if self.fault_injector is not None:
            fault = self.fault_injector.take_message_fault(message_class)
            if fault is not None and fault.kind == "delay_message":
                extra_cost = fault.delay_seconds
            elif fault is not None and fault.kind == "drop_message":
                # One copy is lost in flight and retransmitted: the lost
                # copy already consumed the wire, the retry consumes it
                # again, so both land in the totals.
                dropped = retried = 1
                extra_cost = self.config.transfer_cost(payload_bytes)
        cost = copies * self.config.transfer_cost(payload_bytes) + extra_cost
        self.stats.messages += copies + retried
        self.stats.bytes_sent += (copies + retried) * payload_bytes
        self.stats.simulated_seconds += cost
        self.stats.messages_dropped += dropped
        self.stats.messages_retried += retried
        if message_class == "ingest":
            self.stats.ingest_messages += copies + retried
            self.stats.ingest_bytes_sent += (copies + retried) * payload_bytes
            self.stats.ingest_simulated_seconds += cost
            self.stats.ingest_messages_dropped += dropped
            self.stats.ingest_messages_retried += retried
        return cost

    def reset(self) -> NetworkStats:
        """Return the accumulated stats and start a fresh accumulation."""
        stats = self.stats
        self.stats = NetworkStats()
        return stats

    def snapshot(self) -> NetworkStats:
        """Return a copy of the current counters without resetting them."""
        return NetworkStats(
            messages=self.stats.messages,
            bytes_sent=self.stats.bytes_sent,
            simulated_seconds=self.stats.simulated_seconds,
            messages_dropped=self.stats.messages_dropped,
            messages_retried=self.stats.messages_retried,
            frames_duplicated=self.stats.frames_duplicated,
            ingest_messages=self.stats.ingest_messages,
            ingest_bytes_sent=self.stats.ingest_bytes_sent,
            ingest_simulated_seconds=self.stats.ingest_simulated_seconds,
            ingest_messages_dropped=self.stats.ingest_messages_dropped,
            ingest_messages_retried=self.stats.ingest_messages_retried,
        )
