"""Transport layer: codec round-trips, framer robustness, socket smoke.

Three concerns, in order of how the wire can betray you:

1. **Codec losslessness** — Hypothesis round-trip properties for *every*
   protocol message class (``ALL_MESSAGE_TYPES`` is iterated, so a new
   message cannot be added without a property here failing to cover it),
   plus the value types they carry (queries, budgets, reports, degraded
   local answers) and whole phase payloads including empty batches.
2. **Framer robustness** — partial-frame reads, truncated streams, garbage
   bytes, and hostile length prefixes must produce buffered waits or typed
   errors, never hangs or unbounded allocation; well-framed but hostile
   *envelopes* are answered with a typed error reply or drop the
   connection, never index anything.
3. **Socket smoke** — a real localhost federation over the socket
   transport, small rows, exercising connect/frame/dispatch/reply and the
   stats counters end to end.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.config import SamplingConfig, SystemConfig, TransportConfig
from repro.core.accounting import QueryBudget
from repro.core.result import ProviderReport
from repro.core.system import FederatedAQPSystem
from repro.errors import ConfigurationError, ProtocolError, TransportError
from repro.federation.messages import (
    ALL_MESSAGE_TYPES,
    AllocationMessage,
    EstimateMessage,
    IngestAck,
    IngestRequest,
    QueryRequest,
    SummaryMessage,
)
from repro.federation.provider import LocalAnswer
from repro.federation.transport import (
    DEFAULT_MAX_FRAME_BYTES,
    FrameDecoder,
    InProcessTransport,
    LoopbackTransport,
    ProcessTransport,
    SocketTransport,
    WIRE_MAGIC,
    create_transport,
    deserialize,
    encode_frame,
    serialize,
)
from repro.query.model import Aggregation, Interval, RangeQuery
from repro.storage.schema import Dimension, Schema
from repro.storage.table import Table

# -- strategies -----------------------------------------------------------------

_ids = st.integers(min_value=0, max_value=2**53 - 1)
_provider_ids = st.text(
    alphabet=st.characters(min_codepoint=33, max_codepoint=0x10FF), max_size=12
)
# json round-trips every finite double exactly via repr; NaN/inf ride the
# non-strict tokens.  allow_nan exercises them too (compared via repr).
_floats = st.floats(allow_nan=False)


@st.composite
def _queries(draw):
    names = draw(
        st.lists(
            st.sampled_from(["age", "hours", "dept"]), min_size=1, max_size=3, unique=True
        )
    )
    ranges = {}
    for name in names:
        low = draw(st.integers(min_value=0, max_value=90))
        ranges[name] = Interval(low, draw(st.integers(min_value=low, max_value=99)))
    aggregation = draw(st.sampled_from(list(Aggregation)))
    return RangeQuery(aggregation, ranges)


@st.composite
def _query_requests(draw):
    seed_material = draw(
        st.none()
        | st.tuples()
        | st.lists(_ids, min_size=1, max_size=6).map(tuple)
    )
    return QueryRequest(
        query_id=draw(_ids),
        query=draw(_queries()),
        sampling_rate=draw(st.floats(min_value=1e-6, max_value=1.0 - 1e-6)),
        seed_material=seed_material,
    )


_summaries = st.builds(
    SummaryMessage,
    query_id=_ids,
    provider_id=_provider_ids,
    noisy_cluster_count=_floats,
    noisy_avg_proportion=_floats,
)
_allocations = st.builds(
    AllocationMessage, query_id=_ids, provider_id=_provider_ids, sample_size=_ids
)
_estimates = st.builds(
    EstimateMessage,
    query_id=_ids,
    provider_id=_provider_ids,
    value=_floats,
    smooth_sensitivity=_floats,
    approximated=st.booleans(),
)
_ingest_requests = st.builds(
    IngestRequest, provider_id=_provider_ids, num_rows=_ids, num_columns=_ids
)
_ingest_acks = st.builds(
    IngestAck,
    provider_id=_provider_ids,
    delta_watermark=_ids,
    layout_epoch=_ids,
    compacted=st.booleans(),
)

_MESSAGE_STRATEGIES = {
    QueryRequest: _query_requests(),
    SummaryMessage: _summaries,
    AllocationMessage: _allocations,
    EstimateMessage: _estimates,
    IngestRequest: _ingest_requests,
    IngestAck: _ingest_acks,
}

# Degraded local answers: a provider that approximated nothing (zero
# allocation, zero sampled clusters) still serialises exactly.
_reports = st.builds(
    ProviderReport,
    provider_id=_provider_ids,
    covering_clusters=_ids,
    allocation=_ids,
    sampled_clusters=_ids,
    approximated=st.booleans(),
    local_estimate=_floats,
    local_noise=_floats,
    smooth_sensitivity=_floats,
    rows_scanned=_ids,
    rows_available=_ids,
    exact_local_answer=st.none() | st.integers(min_value=-(2**53), max_value=2**53),
)
_local_answers = st.builds(LocalAnswer, message=_estimates, report=_reports)
_budgets = st.builds(
    QueryBudget,
    epsilon_allocation=st.floats(min_value=0.0, max_value=10.0),
    epsilon_sampling=st.floats(min_value=0.0, max_value=10.0),
    epsilon_estimation=st.floats(min_value=0.0, max_value=10.0),
    delta=st.floats(min_value=0.0, max_value=1.0),
)


def _wire_roundtrip(value):
    """serialize → frame → deframe → deserialize, asserting frame hygiene."""
    framed = encode_frame(serialize(value))
    frames = FrameDecoder().feed(framed)
    assert len(frames) == 1
    return deserialize(frames[0])


# -- 1. codec round-trips -------------------------------------------------------


def test_every_message_class_has_a_roundtrip_strategy():
    """The registry and the property coverage cannot drift apart."""
    assert set(_MESSAGE_STRATEGIES) == set(ALL_MESSAGE_TYPES)


@pytest.mark.parametrize(
    "message_type", ALL_MESSAGE_TYPES, ids=[cls.__name__ for cls in ALL_MESSAGE_TYPES]
)
def test_message_roundtrip_identity(message_type):
    @given(_MESSAGE_STRATEGIES[message_type])
    def check(message):
        assert _wire_roundtrip(message) == message

    check()


@given(st.lists(_query_requests(), max_size=5), _budgets)
def test_summary_phase_payload_roundtrip(requests, budget):
    # The actual summary-phase envelope, empty batches included.
    payload = {"requests": requests, "epsilon": budget.epsilon_allocation}
    assert _wire_roundtrip(payload) == payload


@given(st.lists(_local_answers, max_size=4), _budgets)
def test_answer_phase_payload_roundtrip(answers, budget):
    # Reply shape of the answer phase — degraded answers (approximated
    # False, zero allocations) and the empty batch included.
    payload = {"answers": answers, "reuse": [False] * len(answers), "budget": budget}
    decoded = _wire_roundtrip(payload)
    assert decoded == payload
    for original, restored in zip(answers, decoded["answers"]):
        assert type(restored) is LocalAnswer
        assert repr(restored.message.value) == repr(original.message.value)


@given(st.floats(allow_nan=False, allow_infinity=True))
def test_float_roundtrip_is_bitexact(value):
    decoded = _wire_roundtrip({"x": value})["x"]
    assert np.array([decoded]).tobytes() == np.array([value]).tobytes()


def test_nan_roundtrips_as_nan():
    # JSON's NaN token carries no payload bits, so the claim for NaN is
    # value-level (still-a-NaN), not bit-level like every other double.
    decoded = _wire_roundtrip({"x": float("nan")})["x"]
    assert np.isnan(decoded)


def test_numpy_arrays_and_tuples_survive_with_types():
    payload = {
        "positions": np.arange(7, dtype=np.int64),
        "weights": np.linspace(0.0, 1.0, 5),
        "key": (1, "a", (2.5, None)),
    }
    decoded = _wire_roundtrip(payload)
    assert isinstance(decoded["key"], tuple)
    assert decoded["key"] == payload["key"]
    for name in ("positions", "weights"):
        assert decoded[name].dtype == payload[name].dtype
        assert np.array_equal(decoded[name], payload[name])


def test_unserialisable_values_raise_typed_errors():
    with pytest.raises(TransportError):
        serialize(object())
    with pytest.raises(TransportError):
        serialize({"__dc__": "reserved key"})
    with pytest.raises(TransportError):
        deserialize(b"not json at all {{{")
    with pytest.raises(TransportError):
        deserialize(serialize({"x": 1}).replace(b"x", b"\xff"))


# -- 2. framer robustness -------------------------------------------------------


def test_partial_frames_buffer_until_complete():
    payload = serialize({"hello": list(range(50))})
    framed = encode_frame(payload)
    decoder = FrameDecoder()
    for position in range(len(framed) - 1):
        assert decoder.feed(framed[position : position + 1]) == []
    assert decoder.feed(framed[-1:]) == [payload]
    assert decoder.pending_bytes == 0


def test_back_to_back_frames_split_at_arbitrary_boundaries():
    payloads = [serialize({"i": i, "pad": "x" * i}) for i in range(6)]
    stream = b"".join(encode_frame(p) for p in payloads)
    rng = np.random.default_rng(7)
    for _ in range(25):
        cuts = sorted(rng.integers(0, len(stream) + 1, size=4))
        chunks = [stream[a:b] for a, b in zip([0, *cuts], [*cuts, len(stream)])]
        decoder = FrameDecoder()
        collected = [frame for chunk in chunks for frame in decoder.feed(chunk)]
        assert collected == payloads
        assert decoder.pending_bytes == 0


def test_garbage_stream_raises_immediately_not_hangs():
    decoder = FrameDecoder()
    with pytest.raises(TransportError, match="magic"):
        decoder.feed(b"GET / HTTP/1.1\r\n\r\n")
    # Poisoned: the stream lost sync, later feeds must not pretend otherwise.
    with pytest.raises(TransportError):
        decoder.feed(b"")


def test_truncated_garbage_after_valid_frame():
    payload = serialize([1, 2, 3])
    decoder = FrameDecoder()
    assert decoder.feed(encode_frame(payload) + b"junk")[0] == payload
    with pytest.raises(TransportError, match="magic"):
        decoder.feed(b"kjunkjunk")


def test_oversized_frame_rejected_on_both_sides():
    with pytest.raises(TransportError, match="ceiling"):
        encode_frame(b"x" * 2049, max_frame_bytes=2048)
    # A hostile length prefix is rejected from the header alone — no
    # buffering of data that will never fit.
    import struct

    hostile = WIRE_MAGIC + struct.pack("!I", 2**31)
    decoder = FrameDecoder(max_frame_bytes=2048)
    with pytest.raises(TransportError, match="ceiling"):
        decoder.feed(hostile)


def test_header_shorter_than_magic_waits():
    decoder = FrameDecoder()
    assert decoder.feed(WIRE_MAGIC[:2]) == []
    assert decoder.pending_bytes == 2


# Well-framed, well-formed JSON — but not a request this server can index
# anything with.  ``reply`` marks the ones that still carry a seq to address
# a typed error to; the rest can only drop the connection.
_HOSTILE_ENVELOPES = [
    ({"op": "ping", "provider": 0, "payload": {}}, False),  # no seq: was KeyError
    ({"seq": "7", "op": "ping", "provider": 0, "payload": {}}, False),
    ({"seq": True, "op": "ping", "provider": 0, "payload": {}}, False),
    ([1, 2, 3], False),  # not a mapping: was TypeError
    ("ping", False),
    (None, False),
    ({"seq": 7, "op": "ping", "provider": -1, "payload": {}}, True),  # served by the last provider
    ({"seq": 7, "op": "ping", "provider": 2, "payload": {}}, True),
    ({"seq": 7, "op": "ping", "provider": "0", "payload": {}}, True),
    ({"seq": 7, "op": "ping", "payload": {}}, True),
    ({"seq": 7, "op": "reboot", "provider": 0, "payload": {}}, True),
    ({"seq": 7, "op": ["ping"], "provider": 0, "payload": {}}, True),
    ({"seq": 7, "op": "ingest", "provider": 0, "payload": {}}, True),  # worker-only op
    ({"seq": 7, "op": "chaos", "provider": 0, "payload": {"kind": "crash_worker"}}, True),
    ({"seq": 7, "op": "forget", "provider": 0, "payload": None}, True),
    ({"seq": 7, "op": "forget", "provider": 0, "payload": {}}, True),  # missing field
]


@pytest.mark.parametrize("envelope,replies", _HOSTILE_ENVELOPES)
def test_hostile_envelopes_get_a_typed_reply_or_drop_the_connection(envelope, replies):
    """The server boundary validates before it indexes: loopback and socket."""
    import socket as socket_module

    with FederatedAQPSystem.from_table(
        _table(200), config=_config(kind="socket")
    ) as system:
        transport = system.aggregator.transport
        if replies:
            reply = transport._serve_request(envelope)
            assert reply["seq"] == 7
            assert reply["err"][0] in ("TransportError", "KeyError")
        else:
            with pytest.raises(TransportError):
                transport._serve_request(envelope)
        # Over real TCP the handler task must end the same way, not die on
        # an unhandled exception: a reply frame, or a closed connection.
        frame = encode_frame(serialize(envelope))
        with socket_module.create_connection(("127.0.0.1", transport.port), 5.0) as sock:
            sock.settimeout(5.0)
            sock.sendall(frame)
            decoder = FrameDecoder()
            frames: list[bytes] = []
            while not frames:
                data = sock.recv(65536)
                if not data:
                    break
                frames = decoder.feed(data)
        if replies:
            assert deserialize(frames[0])["err"][0] in ("TransportError", "KeyError")
        else:
            assert frames == []
        # The server is still there for well-behaved peers.
        assert transport._call(0, "ping", {}) == "pong"


def test_undecodable_frame_drops_the_socket_connection():
    """A frame that is not JSON escaped the handler as an unhandled task error."""
    import socket as socket_module

    with FederatedAQPSystem.from_table(
        _table(200), config=_config(kind="socket")
    ) as system:
        transport = system.aggregator.transport
        with socket_module.create_connection(("127.0.0.1", transport.port), 5.0) as sock:
            sock.settimeout(5.0)
            sock.sendall(encode_frame(b"not json at all {{{"))
            assert sock.recv(65536) == b""
        assert transport._call(0, "ping", {}) == "pong"


# -- 3. transports against a live federation ------------------------------------

_SCHEMA = Schema(
    (Dimension("age", 0, 99), Dimension("hours", 0, 49), Dimension("dept", 0, 9))
)


def _table(rows: int = 600) -> Table:
    rng = np.random.default_rng(5)
    return Table(
        _SCHEMA,
        {
            "age": rng.integers(0, 100, rows),
            "hours": np.minimum(49, rng.poisson(12, rows)),
            "dept": rng.integers(0, 10, rows),
        },
    )


def _config(**transport_kwargs) -> SystemConfig:
    return SystemConfig(
        cluster_size=50,
        num_providers=2,
        sampling=SamplingConfig(sampling_rate=0.3, min_clusters_for_approximation=3),
        transport=TransportConfig(**transport_kwargs),
        seed=11,
    )


_QUERIES = [
    RangeQuery.count({"age": (10, 70)}),
    RangeQuery.count({"age": (0, 99), "hours": (5, 25)}),
]


def test_socket_smoke_localhost():
    """End-to-end over real TCP: answers match in-process, wire stats move."""
    with FederatedAQPSystem.from_table(_table(), config=_config()) as reference:
        expected = reference.execute_batch(_QUERIES, compute_exact=False).values
        assert reference.transport_stats().messages == 0
    with FederatedAQPSystem.from_table(
        _table(), config=_config(kind="socket")
    ) as system:
        assert isinstance(system.aggregator.transport, SocketTransport)
        first = system.execute_batch(_QUERIES, compute_exact=False).values
        stats = system.transport_stats()
        assert first == expected
        # summary + answer + forget, one request and one reply frame each,
        # for each of the two providers.
        assert stats.messages == 12
        assert stats.bytes_sent > 24 * len(WIRE_MAGIC)
        assert stats.frames_duplicated == 0
        # The connections stay up across batches.
        second = system.execute_batch(_QUERIES, compute_exact=False)
        assert system.transport_stats().messages == 24
        assert second.num_queries == len(_QUERIES)
    # close() is idempotent and final.
    system.aggregator.transport.close()
    system.aggregator.transport.close()


def test_socket_transport_call_after_close_raises():
    table = _table(200)
    with FederatedAQPSystem.from_table(
        table, config=_config(kind="socket")
    ) as system:
        transport = system.aggregator.transport
        system.execute_batch(_QUERIES[:1], compute_exact=False)
    with pytest.raises(TransportError):
        transport.forget_batch(0, [999])


def test_loopback_surfaces_provider_errors_typed():
    """An exception on the provider side crosses the wire as its own type."""
    with FederatedAQPSystem.from_table(
        _table(200), config=_config(kind="loopback")
    ) as system:
        transport = system.aggregator.transport
        assert isinstance(transport, LoopbackTransport)
        with pytest.raises(ProtocolError):
            transport.answer_batch(
                0,
                [AllocationMessage(query_id=424242, provider_id="provider-0", sample_size=3)],
                QueryBudget(1.0, 1.0, 1.0, 1e-3),
                False,
            )


def test_create_transport_dispatch_and_validation():
    providers = FederatedAQPSystem.from_table(_table(200), config=_config()).providers
    assert isinstance(create_transport(None, providers), InProcessTransport)
    assert isinstance(
        create_transport(TransportConfig(kind="loopback"), providers), LoopbackTransport
    )
    process = create_transport(TransportConfig(kind="process"), providers)
    assert isinstance(process, ProcessTransport)
    assert process.shared_block_names() == ()  # nothing exported before the first call
    process.close()
    with pytest.raises(ConfigurationError):
        TransportConfig(kind="carrier-pigeon")
    with pytest.raises(ConfigurationError):
        TransportConfig(shard_workers=0)
    with pytest.raises(ConfigurationError):
        TransportConfig(max_frame_bytes=16)


def test_default_max_frame_fits_protocol_payloads():
    # A whole summary-phase request batch stays far below the frame ceiling.
    requests = [
        QueryRequest(query_id=i, query=_QUERIES[i % 2], sampling_rate=0.2)
        for i in range(100)
    ]
    frame = encode_frame(serialize({"requests": requests, "epsilon": 0.5}))
    assert len(frame) < DEFAULT_MAX_FRAME_BYTES // 100
