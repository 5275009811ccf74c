"""The wire is the privacy boundary: only released messages cross it.

``federation/messages.py`` is the exhaustive list of what may leave a
provider.  These tests capture every frame of real drains — over TCP (the
``RAQP`` codec, both directions) and over the process carrier's pipes
(every reply a worker sends) — and check two things:

1. **Only message types.**  Decoding the captured bytes builds nothing but
   the classes of ``ALL_MESSAGE_TYPES`` plus the value types they carry
   (``RangeQuery`` with its ``Aggregation``, ``Interval``, ``QueryBudget``),
   on a plain drain, a drain with the release caches on (hits re-serve a
   provider's stored diagnostics locally — never onto the wire) and a
   degraded drain (disconnects, crashed workers, respawn replays).
2. **Nothing to reconstruct.**  An in-process twin of the same seed knows
   every provider's diagnostics; none of the estimate before noise, the
   noise, the exact local answer or the exact covering count can be read
   off what the wire carried for that (provider, query).

Trace spans that ride a reply are pinned too: their tags are
``provider`` / ``queries`` / ``shard`` / ``side`` / ``transport`` only.
"""

from __future__ import annotations

import dataclasses
import enum
import io
import pickle
import struct

import numpy as np
import pytest

from repro.config import (
    CacheConfig,
    ObservabilityConfig,
    PrivacyConfig,
    ResilienceConfig,
    SamplingConfig,
    SystemConfig,
    TransportConfig,
)
from repro.core.accounting import QueryBudget
from repro.core.system import FederatedAQPSystem
from repro.federation import transport as transport_module
from repro.federation.messages import ALL_MESSAGE_TYPES
from repro.query.model import Aggregation, Interval, RangeQuery
from repro.service import SessionScheduler, TenantRegistry
from repro.storage.schema import Dimension, Schema
from repro.storage.table import Table
from repro.testing import FaultSchedule, FaultSpec

ALLOWED = frozenset({*ALL_MESSAGE_TYPES, RangeQuery, Interval, QueryBudget, Aggregation})
"""Every class a frame may decode to (beyond JSON/pickle containers and scalars)."""

SPAN_TAGS = frozenset({"provider", "queries", "shard", "side", "transport"})

_PLAIN = (type(None), bool, int, float, str)

QUERIES = (
    RangeQuery.count({"age": (20, 60)}),
    RangeQuery.count({"hours": (5, 20)}),
    RangeQuery.count({"age": (0, 30), "hours": (0, 15)}),
    RangeQuery.count({"age": (40, 41)}),  # few covering clusters: the exact path
)


def _table(rows: int = 900) -> Table:
    schema = Schema((Dimension("age", 0, 99), Dimension("hours", 0, 49)))
    rng = np.random.default_rng(123)
    return Table(
        schema,
        {
            "age": rng.integers(0, 100, rows),
            "hours": np.minimum(49, rng.poisson(12, rows)),
        },
    )


def _system(config: SystemConfig) -> FederatedAQPSystem:
    # Age-sorted clusters: a narrow age range covers few of them, so the
    # workload takes the exact path as well as the sampled one.
    return FederatedAQPSystem.from_table(
        _table(), config=config, clustering_policy="sorted", sort_by="age"
    )


def _config(kind: str, *, cache: bool = False, schedule=None) -> SystemConfig:
    return SystemConfig(
        num_providers=3,
        cluster_size=30,
        seed=7,
        privacy=PrivacyConfig(epsilon=1.0, delta=1e-3),
        sampling=SamplingConfig(sampling_rate=0.2, min_clusters_for_approximation=3),
        transport=TransportConfig(kind=kind),
        cache=CacheConfig(enabled=cache),
        injected_faults=schedule,
        resilience=ResilienceConfig(
            enabled=schedule is not None, max_retries=1, min_providers=1
        ),
        observability=ObservabilityConfig(enabled=True),
    )


# -- capture ---------------------------------------------------------------------


class _PipeCapture:
    """Stands in for ``pickle`` inside the transport module and records the
    bytes of every reply the parent receives from a worker."""

    HIGHEST_PROTOCOL = pickle.HIGHEST_PROTOCOL
    dumps = staticmethod(pickle.dumps)

    def __init__(self) -> None:
        self.replies: list[bytes] = []

    def loads(self, data: bytes):
        self.replies.append(bytes(data))
        return pickle.loads(data)


class _ClassRecorder(pickle.Unpickler):
    """Decodes a pickle and records every class it has to look up."""

    def __init__(self, data: bytes) -> None:
        super().__init__(io.BytesIO(data))
        self.classes: set[type] = set()

    def find_class(self, module, name):
        found = super().find_class(module, name)
        self.classes.add(found)
        return found


def _capture_socket(monkeypatch) -> list[bytes]:
    """Record the payload of every ``RAQP`` frame, request or reply."""
    frames: list[bytes] = []
    encode = transport_module.encode_frame

    def recording(payload, *args, **kwargs):
        frames.append(payload)
        return encode(payload, *args, **kwargs)

    monkeypatch.setattr(transport_module, "encode_frame", recording)
    return frames


def _capture_pipes(monkeypatch) -> _PipeCapture:
    capture = _PipeCapture()
    monkeypatch.setattr(transport_module, "pickle", capture)
    return capture


def _drain(system: FederatedAQPSystem, rounds: int = 2):
    """Two tenants, ``rounds`` drains; repeats make cache hits when caching."""
    registry = TenantRegistry()
    for tenant_id in ("alice", "bob"):
        registry.register(tenant_id, total_epsilon=50.0, total_delta=0.5)
    scheduler = SessionScheduler(system, registry)
    answers = []
    for _ in range(rounds):
        scheduler.submit("alice", list(QUERIES))
        scheduler.submit("bob", list(QUERIES[:2]))
        answers.extend(scheduler.drain())
    return answers


# -- decoding ----------------------------------------------------------------------


def _objects(value):
    """Every value reachable from a decoded frame (dataclass fields included)."""
    stack = [value]
    while stack:
        item = stack.pop()
        yield item
        if isinstance(item, dict):
            stack.extend(item.keys())
            stack.extend(item.values())
        elif isinstance(item, (list, tuple)):
            stack.extend(item)
        elif dataclasses.is_dataclass(item) and not isinstance(item, type):
            stack.extend(getattr(item, field.name) for field in dataclasses.fields(item))


def _foreign_classes(value) -> set[type]:
    """Classes in a decoded frame that are neither containers, scalars nor
    :data:`ALLOWED` (exact types: a subclass of ``int`` is not an ``int``)."""
    return {type(item) for item in _objects(value)} - {*_PLAIN, dict, list, tuple} - ALLOWED


def _decoded_socket_frames(frames: list[bytes]) -> list:
    return [transport_module.deserialize(frame) for frame in frames]


def _decoded_pipe_replies(capture: _PipeCapture) -> tuple[list, set[type]]:
    decoded, classes = [], set()
    for data in capture.replies:
        recorder = _ClassRecorder(data)
        decoded.append(recorder.load())
        classes |= recorder.classes
    return decoded, classes


# -- 1. only message types cross ----------------------------------------------------

_DRAINS = {
    "plain": dict(),
    "cache": dict(cache=True),
    "degraded": dict(
        schedule=FaultSchedule.of(
            FaultSpec(
                kind="disconnect", provider_index=1, phase="answer", batch=None, repeat=50
            )
        )
    ),
}


@pytest.mark.parametrize("drain", sorted(_DRAINS))
def test_socket_drain_frames_decode_to_message_types_only(drain, monkeypatch):
    frames = _capture_socket(monkeypatch)
    with _system(_config("socket", **_DRAINS[drain])) as system:
        answers = _drain(system)
        spans = system.obs.tracer.spans()
    assert answers and frames
    if drain == "degraded":
        assert all(answer.degraded for answer in answers)
    if drain == "cache":
        assert any(result.trace.answer_cache_hits for a in answers for result in a.results)
    decoded = _decoded_socket_frames(frames)
    assert _foreign_classes(decoded) == set()
    # Answer replies carry estimates and reuse flags: nothing else.
    replies = [frame["ok"] for frame in decoded if isinstance(frame.get("ok"), dict)]
    answer_replies = [reply for reply in replies if "answers" in reply]
    assert answer_replies
    for reply in answer_replies:
        assert set(reply) == {"answers", "reuse"}
    # Server spans of a socket carrier stay in this process; their tags are
    # pinned all the same.
    server = [span for span in spans if span.tags.get("side") == "server"]
    assert server
    for span in server:
        assert set(span.tags) <= SPAN_TAGS, span.tags


_PROCESS_DRAINS = {
    **_DRAINS,
    "degraded": dict(
        schedule=FaultSchedule.of(
            FaultSpec(
                kind="crash_worker", provider_index=2, phase="answer", batch=None, repeat=50
            )
        )
    ),
}


@pytest.mark.parametrize("drain", sorted(_PROCESS_DRAINS))
def test_process_drain_replies_decode_to_message_types_only(drain, monkeypatch):
    capture = _capture_pipes(monkeypatch)
    with _system(_config("process", **_PROCESS_DRAINS[drain])) as system:
        answers = _drain(system)
    assert answers and capture.replies
    if drain == "degraded":
        assert all(answer.degraded for answer in answers)
    decoded, classes = _decoded_pipe_replies(capture)
    # What the unpickler had to import is what the worker put on the pipe.
    assert classes <= ALLOWED, classes - ALLOWED
    assert _foreign_classes(decoded) == set()
    spans = [record for reply in decoded for record in reply.get("spans", ())]
    assert spans, "tracing is on: worker spans must ride the replies"
    for record in spans:
        assert set(record["tags"]) <= SPAN_TAGS, record["tags"]
    for reply in decoded:
        ok = reply.get("ok")
        if isinstance(ok, dict) and "answers" in ok:
            assert set(ok) == {"answers", "reuse"}


# -- 2. nothing a provider keeps local can be recovered -----------------------------


def _bits(value: float) -> bytes:
    return struct.pack("<d", value)


def _leaves(value) -> tuple[set[bytes], set[int]]:
    """Float bit patterns and (non-bool) integers anywhere inside ``value``."""
    floats, ints = set(), set()
    for item in _objects(value):
        if type(item) is float:
            floats.add(_bits(item))
        elif type(item) is int:
            ints.add(item)
    return floats, ints


def _per_answer(decoded: list) -> dict[tuple[str, int], tuple[set, set]]:
    """``(provider id, query id)`` → leaves of what that answer reply carried,
    apart from the two fields the aggregator addressed the answer by."""
    carried = {}
    for frame in decoded:
        ok = frame.get("ok") if isinstance(frame, dict) else None
        if not (isinstance(ok, dict) and "answers" in ok):
            continue
        for element in ok["answers"]:
            keyed = next(
                item
                for item in _objects(element)
                if dataclasses.is_dataclass(item)
                and hasattr(item, "query_id")
                and hasattr(item, "provider_id")
            )
            key = (keyed.provider_id, keyed.query_id)
            floats, ints = _leaves(element)
            ints.discard(keyed.query_id)
            carried[key] = (floats, ints)
    return carried


def _in_process_diagnostics(batches) -> dict[tuple[str, int], object]:
    """The twin's diagnostics keyed like :func:`_per_answer` (query ids are
    assigned in order from 0 by the aggregator, on every carrier)."""
    diagnostics, query_id = {}, 0
    for batch in batches:
        for result in batch.results:
            for local in result.provider_diagnostics:
                diagnostics[(local.provider_id, query_id)] = local
            query_id += 1
    return diagnostics


@pytest.mark.parametrize("kind", ["socket", "process"])
def test_no_local_diagnostic_is_recoverable_from_the_wire(kind, monkeypatch):
    config = dataclasses.replace(_config(kind), observability=ObservabilityConfig())
    workload = [list(QUERIES), list(QUERIES[::-1])]
    with _system(dataclasses.replace(config, transport=TransportConfig())) as twin:
        local = _in_process_diagnostics(
            [twin.execute_batch(queries, compute_exact=False) for queries in workload]
        )
    if kind == "socket":
        frames = _capture_socket(monkeypatch)
    else:
        capture = _capture_pipes(monkeypatch)
    with _system(config) as system:
        over_wire = [system.execute_batch(q, compute_exact=False) for q in workload]
    decoded = (
        _decoded_socket_frames(frames)
        if kind == "socket"
        else _decoded_pipe_replies(capture)[0]
    )
    carried = _per_answer(decoded)
    assert set(carried) == set(local)
    every_float = set().union(*(floats for floats, _ in carried.values()))
    exact_paths = 0
    for key, diagnostics in local.items():
        floats, ints = carried[key]
        # The wire carried the release, bit for bit ...
        released = _bits(diagnostics.local_estimate + diagnostics.local_noise)
        assert diagnostics.local_noise != 0.0
        assert released in floats
        # ... and none of what would undo it (an estimate of exactly 0 makes
        # the noise the release itself, which is no reconstruction).
        assert _bits(diagnostics.local_estimate) not in every_float, key
        if _bits(diagnostics.local_noise) != released:
            assert _bits(diagnostics.local_noise) not in every_float, key
        assert _bits(diagnostics.smooth_sensitivity) not in floats, key
        assert diagnostics.covering_clusters not in ints, key
        if diagnostics.exact_local_answer is not None:
            exact_paths += 1
            assert diagnostics.exact_local_answer not in ints, key
            assert _bits(float(diagnostics.exact_local_answer)) not in floats, key
    assert exact_paths, "the workload must exercise the exact path too"
    for batch in over_wire:
        for result in batch.results:
            assert result.provider_diagnostics is None
            assert result.noise_injected is None


def test_the_class_walk_sees_through_every_container():
    # Otherwise the capture tests above could pass by not looking.
    assert _foreign_classes([{"a": (1, [2.0])}, Aggregation.COUNT]) == set()

    class Leak(enum.Enum):
        X = 1

    assert _foreign_classes({"k": [(Leak.X,)]}) == {Leak}
