"""Deterministic fault injection for chaos-testing the federated drain path.

The federated setting of the paper assumes data providers that can slow
down, crash, or disappear mid-protocol.  This module gives the test suite a
way to *script* those failures instead of hoping for them:

* a :class:`FaultSpec` names one failure — drop a provider, crash or hang a
  provider's worker process, kill a worker connection, lose/stall/duplicate
  a transport frame, delay or drop a simulated network message — pinned to
  a protocol phase (``"summary"`` vs. ``"answer"``) of a chosen batch;
* a :class:`FaultSchedule` is a frozen, hashable set of specs.  It rides on
  :attr:`~repro.config.SystemConfig.injected_faults`, and
  :meth:`FaultSchedule.from_seed` derives one deterministically from an
  integer seed, so a randomised chaos run replays bit-identically from its
  seed alone;
* a :class:`FaultInjector` is the runtime half: the aggregator (and the
  simulated network) consult it before each provider call / message send,
  and every fault that actually fires is appended to
  :attr:`FaultInjector.trace` — the failure trace that replay tests compare
  and that CI uploads on a red chaos run.

Faults are consumed **aggregator-side only**: worker processes never see
the schedule.  The aggregator offers each provider fault to its transport
(:meth:`~repro.federation.transport.Transport.inject`).  On the
``"process"`` carrier a ``crash_worker``/``hang_worker`` spec sends a tiny
one-way chaos directive ahead of the real request (the worker then calls
``os._exit`` or sleeps) and ``kill_connection`` kills the worker under the
call; on carriers whose providers run in-process nothing can genuinely
crash, so those kinds — like ``drop_provider`` everywhere — fail the
attempt at the call site.  This keeps the injection deterministic and the
envelope untouched when no schedule is installed.

>>> schedule = FaultSchedule.from_seed(7, num_providers=4)
>>> schedule == FaultSchedule.from_seed(7, num_providers=4)
True
>>> schedule.faults[0].kind in FAULT_KINDS
True
"""

from __future__ import annotations

import json
import os
import threading
from dataclasses import asdict, dataclass

import numpy as np

from ..errors import ConfigurationError

__all__ = [
    "FAULT_KINDS",
    "PROVIDER_FAULT_KINDS",
    "MESSAGE_FAULT_KINDS",
    "TRANSPORT_FAULT_KINDS",
    "PROTOCOL_PHASES",
    "FaultSpec",
    "FaultSchedule",
    "FiredFault",
    "FaultInjector",
]

PROVIDER_FAULT_KINDS = (
    "drop_provider",
    "crash_worker",
    "hang_worker",
    "kill_connection",
)
"""Faults applied to one provider's phase call (any transport carrier)."""

MESSAGE_FAULT_KINDS = ("delay_message", "drop_message")
"""Faults applied to one :class:`~repro.federation.network.SimulatedNetwork` send."""

TRANSPORT_FAULT_KINDS = (
    "drop_frame",
    "delay_frame",
    "disconnect",
    "duplicate_frame",
)
"""Faults applied at the wire boundary of a transport carrier with a wire
(:mod:`repro.federation.transport`: loopback, socket, process), keyed by
(batch, phase, provider) like the provider faults.  ``drop_frame`` loses the request frame before it
reaches the provider and ``disconnect`` severs the connection mid-phase —
both surface as :class:`~repro.errors.TransportError` and enter the
resilience retry/degrade path; ``delay_frame`` stalls the frame (a slow
link); ``duplicate_frame`` delivers the reply twice, exercising the
receiver's sequence-based duplicate discard."""

FAULT_KINDS = PROVIDER_FAULT_KINDS + MESSAGE_FAULT_KINDS + TRANSPORT_FAULT_KINDS

PROTOCOL_PHASES = ("summary", "answer")
"""The two provider-facing phases of the batched protocol."""


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ConfigurationError(message)


@dataclass(frozen=True)
class FaultSpec:
    """One scripted failure.

    Attributes
    ----------
    kind:
        One of :data:`FAULT_KINDS`.
    provider_index:
        Federation index of the provider hit (provider faults only).
    phase:
        Protocol phase the fault arms at (provider faults only).
    batch:
        Batch counter value the fault arms at; ``None`` arms it at every
        batch (until ``repeat`` is exhausted).
    repeat:
        How many times the spec fires before disarming.  A retried call
        consumes one firing per attempt, so ``repeat=1`` with one retry
        means the provider recovers on the retry; a large ``repeat``
        models a provider that is permanently down.
    hang_seconds:
        Sleep injected into the worker for ``hang_worker`` (should exceed
        the configured provider timeout to actually trip it).
    delay_seconds:
        Extra simulated latency for ``delay_message``.
    message_class:
        Traffic class a message fault applies to (``"query"``/``"ingest"``).
    message_index:
        0-based per-class send counter value the message fault fires at;
        ``None`` fires on the next send of that class.
    """

    kind: str
    provider_index: int = 0
    phase: str = "summary"
    batch: int | None = 0
    repeat: int = 1
    hang_seconds: float = 30.0
    delay_seconds: float = 0.01
    message_class: str = "query"
    message_index: int | None = 0

    def __post_init__(self) -> None:
        _require(self.kind in FAULT_KINDS, f"kind must be one of {FAULT_KINDS}, got {self.kind!r}")
        _require(
            self.phase in PROTOCOL_PHASES,
            f"phase must be one of {PROTOCOL_PHASES}, got {self.phase!r}",
        )
        _require(self.provider_index >= 0, f"provider_index must be >= 0, got {self.provider_index}")
        if self.batch is not None:
            _require(self.batch >= 0, f"batch must be >= 0, got {self.batch}")
        _require(self.repeat >= 1, f"repeat must be >= 1, got {self.repeat}")
        _require(self.hang_seconds >= 0, f"hang_seconds must be >= 0, got {self.hang_seconds}")
        _require(self.delay_seconds >= 0, f"delay_seconds must be >= 0, got {self.delay_seconds}")
        if self.message_index is not None:
            _require(
                self.message_index >= 0,
                f"message_index must be >= 0, got {self.message_index}",
            )

    def matches_call(self, batch: int, phase: str, provider_index: int) -> bool:
        """Whether this spec arms for one provider phase call."""
        return (
            self.kind in PROVIDER_FAULT_KINDS
            and (self.batch is None or self.batch == batch)
            and self.phase == phase
            and self.provider_index == provider_index
        )

    def matches_transport(self, batch: int, phase: str, provider_index: int) -> bool:
        """Whether this spec arms for one transport-level provider call."""
        return (
            self.kind in TRANSPORT_FAULT_KINDS
            and (self.batch is None or self.batch == batch)
            and self.phase == phase
            and self.provider_index == provider_index
        )

    def matches_message(self, message_class: str, message_index: int) -> bool:
        """Whether this spec arms for one simulated-network send."""
        return (
            self.kind in MESSAGE_FAULT_KINDS
            and self.message_class == message_class
            and (self.message_index is None or self.message_index == message_index)
        )


@dataclass(frozen=True)
class FaultSchedule:
    """A frozen, hashable set of scripted failures.

    Hangs off :attr:`~repro.config.SystemConfig.injected_faults`; the
    owning aggregator builds one :class:`FaultInjector` per schedule at
    construction, so one schedule drives one deterministic chaos run.
    """

    faults: tuple[FaultSpec, ...] = ()

    def __post_init__(self) -> None:
        _require(
            isinstance(self.faults, tuple)
            and all(isinstance(fault, FaultSpec) for fault in self.faults),
            "faults must be a tuple of FaultSpec",
        )

    @classmethod
    def of(cls, *faults: FaultSpec) -> "FaultSchedule":
        """Build a schedule from individual specs."""
        return cls(tuple(faults))

    @classmethod
    def from_seed(
        cls,
        seed: int,
        *,
        num_providers: int,
        num_batches: int = 4,
        num_faults: int = 2,
        kinds: tuple[str, ...] = PROVIDER_FAULT_KINDS,
        phases: tuple[str, ...] = PROTOCOL_PHASES,
        repeat: int = 1,
    ) -> "FaultSchedule":
        """Derive a schedule deterministically from an integer seed.

        The same ``(seed, shape)`` arguments always produce the same
        schedule, which (together with the system seed) makes a whole chaos
        run replayable from two integers.

        >>> a = FaultSchedule.from_seed(3, num_providers=2, num_faults=3)
        >>> b = FaultSchedule.from_seed(3, num_providers=2, num_faults=3)
        >>> a == b and len(a.faults) == 3
        True
        """
        _require(num_providers >= 1, f"num_providers must be >= 1, got {num_providers}")
        _require(num_batches >= 1, f"num_batches must be >= 1, got {num_batches}")
        _require(num_faults >= 0, f"num_faults must be >= 0, got {num_faults}")
        _require(bool(kinds), "kinds must not be empty")
        rng = np.random.default_rng(seed)
        faults: list[FaultSpec] = []
        for _ in range(num_faults):
            kind = kinds[int(rng.integers(len(kinds)))]
            if kind in PROVIDER_FAULT_KINDS:
                faults.append(
                    FaultSpec(
                        kind=kind,
                        provider_index=int(rng.integers(num_providers)),
                        phase=phases[int(rng.integers(len(phases)))],
                        batch=int(rng.integers(num_batches)),
                        repeat=repeat,
                        hang_seconds=float(rng.uniform(1.0, 5.0)),
                    )
                )
            else:
                faults.append(
                    FaultSpec(
                        kind=kind,
                        message_class="query",
                        message_index=int(rng.integers(8)),
                        delay_seconds=float(rng.uniform(1e-3, 1e-2)),
                    )
                )
        return cls(tuple(faults))


@dataclass(frozen=True)
class FiredFault:
    """One fault that actually fired, with the context it fired in."""

    kind: str
    batch: int
    attempt: int
    phase: str | None = None
    provider_index: int | None = None
    message_class: str | None = None
    message_index: int | None = None


class FaultInjector:
    """Runtime consumer of one :class:`FaultSchedule`.

    The aggregator consults :meth:`take_call_fault` before every provider
    phase call (each retry is a new attempt) and the simulated network
    consults :meth:`take_message_fault` on every send.  Consumption is
    guarded by a lock (the serving layer drives the aggregator from its
    dispatcher thread while tests read the trace), and a spec is keyed by
    ``(batch, phase, provider)``, never by timing.
    """

    def __init__(self, schedule: FaultSchedule) -> None:
        self.schedule = schedule
        self._lock = threading.Lock()
        self._remaining = [spec.repeat for spec in schedule.faults]
        self._batch = 0
        self._message_counters: dict[str, int] = {}
        self.trace: list[FiredFault] = []

    def begin_batch(self, batch_index: int) -> None:
        """Arm the injector for one aggregator batch."""
        with self._lock:
            self._batch = batch_index

    def take_call_fault(
        self, phase: str, provider_index: int, attempt: int
    ) -> FaultSpec | None:
        """Consume (and record) the armed fault for one provider call, if any."""
        with self._lock:
            for index, spec in enumerate(self.schedule.faults):
                if self._remaining[index] <= 0:
                    continue
                if spec.matches_call(self._batch, phase, provider_index):
                    self._remaining[index] -= 1
                    self.trace.append(
                        FiredFault(
                            kind=spec.kind,
                            batch=self._batch,
                            attempt=attempt,
                            phase=phase,
                            provider_index=provider_index,
                        )
                    )
                    return spec
            return None

    def take_transport_fault(
        self, phase: str, provider_index: int, attempt: int
    ) -> FaultSpec | None:
        """Consume (and record) the armed transport fault for one call, if any.

        Consulted by the wire carriers
        (:mod:`repro.federation.transport`) before each provider phase call
        crosses the wire; each retry is a new attempt, mirroring
        :meth:`take_call_fault`.
        """
        with self._lock:
            for index, spec in enumerate(self.schedule.faults):
                if self._remaining[index] <= 0:
                    continue
                if spec.matches_transport(self._batch, phase, provider_index):
                    self._remaining[index] -= 1
                    self.trace.append(
                        FiredFault(
                            kind=spec.kind,
                            batch=self._batch,
                            attempt=attempt,
                            phase=phase,
                            provider_index=provider_index,
                        )
                    )
                    return spec
            return None

    def take_message_fault(self, message_class: str) -> FaultSpec | None:
        """Consume (and record) the armed fault for one network send, if any."""
        with self._lock:
            sequence = self._message_counters.get(message_class, 0)
            self._message_counters[message_class] = sequence + 1
            for index, spec in enumerate(self.schedule.faults):
                if self._remaining[index] <= 0:
                    continue
                if spec.matches_message(message_class, sequence):
                    self._remaining[index] -= 1
                    self.trace.append(
                        FiredFault(
                            kind=spec.kind,
                            batch=self._batch,
                            attempt=1,
                            message_class=message_class,
                            message_index=sequence,
                        )
                    )
                    return spec
            return None

    @property
    def fired(self) -> int:
        """Number of faults that have fired so far."""
        with self._lock:
            return len(self.trace)

    def signature(self) -> tuple[tuple, ...]:
        """Hashable form of the failure trace (for replay equality checks)."""
        with self._lock:
            return tuple(
                (
                    fired.kind,
                    fired.batch,
                    fired.attempt,
                    fired.phase,
                    fired.provider_index,
                    fired.message_class,
                    fired.message_index,
                )
                for fired in self.trace
            )

    def as_dict(self) -> dict:
        """JSON-friendly form of the schedule and the trace so far."""
        with self._lock:
            return {
                "schedule": [asdict(spec) for spec in self.schedule.faults],
                "trace": [asdict(fired) for fired in self.trace],
            }

    def dump_trace(self, path: str) -> None:
        """Write the failure trace as JSON (the CI chaos artifact)."""
        directory = os.path.dirname(path)
        if directory:
            os.makedirs(directory, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.as_dict(), handle, indent=2, sort_keys=True)
