"""Transport layer: codec round-trips, framer robustness, socket smoke.

Three concerns, in order of how the wire can betray you:

1. **Codec losslessness** — Hypothesis round-trip properties for *every*
   protocol message class (``ALL_MESSAGE_TYPES`` is iterated, so a new
   message cannot be added without a property here failing to cover it),
   plus the value types they carry (queries, intervals, budgets) and whole
   phase payloads including empty batches; blocks whose columns mix signed
   zeros, NaN, infinities and subnormals, bools beside ints, or hold one
   value throughout.  The per-object codec the column-block one replaced
   stays here as the reference: both must hand back the value they were
   given, bit for bit.  A malformed or hostile block (a row count that
   lies, a constant that is not a value, packed doubles of the wrong
   size) must be refused with a typed error before it allocates beyond
   its frame, and a provider's diagnostics are refused, never dropped.
2. **Framer robustness** — partial-frame reads, truncated streams, garbage
   bytes, and hostile length prefixes must produce buffered waits or typed
   errors, never hangs or unbounded allocation; well-framed but hostile
   *envelopes* are answered with a typed error reply or drop the
   connection, never index anything.
3. **Socket smoke** — a real localhost federation over the socket
   transport, small rows, exercising connect/frame/dispatch/reply and the
   stats counters end to end; the server's threads must be gone after
   ``close()`` and its counters exact under concurrent clients.
"""

from __future__ import annotations

import base64
import dataclasses
import json
import os
import socket as socket_module
import struct
import sys
import threading
import time

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.config import IngestConfig, SamplingConfig, SystemConfig, TransportConfig
from repro.core.accounting import QueryBudget
from repro.core.result import ProviderDiagnostics, ProviderRelease
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
    smooth_sensitivity=st.none() | _floats,
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

# What never crosses: a provider's own account of its answer, and the
# aggregator's record of a release (built from messages it already holds).
_PROVIDER_LOCAL = {
    "ProviderDiagnostics": st.builds(
        ProviderDiagnostics,
        provider_id=_provider_ids,
        local_estimate=_floats,
        local_noise=_floats,
        smooth_sensitivity=_floats,
        covering_clusters=_ids,
        sampled_clusters=_ids,
        rows_scanned=_ids,
        rows_available=_ids,
        exact_local_answer=st.none() | st.integers(min_value=-(2**53), max_value=2**53),
    ),
    "ProviderRelease": st.builds(
        ProviderRelease,
        provider_id=_provider_ids,
        allocation=_ids,
        approximated=st.booleans(),
        released_value=_floats,
    ),
}
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


@given(st.lists(_estimates, max_size=4), _budgets)
def test_answer_phase_payload_roundtrip(estimates, budget):
    # Reply shape of the answer phase: the estimates and the reuse flags,
    # nothing else — plain estimates (no sensitivity), SMC ones, degraded
    # ones (approximated False) and the empty batch included.
    payload = {"answers": estimates, "reuse": [False] * len(estimates), "budget": budget}
    decoded = _wire_roundtrip(payload)
    assert decoded == payload
    for original, restored in zip(estimates, decoded["answers"]):
        assert type(restored) is EstimateMessage
        assert _bits(restored) == _bits(original)


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


# -- 1b. the column-block codec against the per-object reference ------------------

_REFERENCE_CLASSES = {
    cls.__name__: cls
    for cls in (*ALL_MESSAGE_TYPES, Interval, RangeQuery, QueryBudget)
}


def _reference_to_wire(value):
    """The per-object tagged-JSON walk this codec replaced, kept as the oracle."""
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, Aggregation):
        return {"__en__": value.value}
    if isinstance(value, np.ndarray):
        data = base64.b64encode(np.ascontiguousarray(value).tobytes()).decode("ascii")
        return {"__nd__": [str(value.dtype), list(value.shape), data]}
    if type(value).__name__ in _REFERENCE_CLASSES:
        fields = {
            field.name: _reference_to_wire(getattr(value, field.name))
            for field in dataclasses.fields(value)
        }
        return {"__dc__": type(value).__name__, "__f__": fields}
    if isinstance(value, tuple):
        return {"__tu__": [_reference_to_wire(item) for item in value]}
    if isinstance(value, list):
        return [_reference_to_wire(item) for item in value]
    return {key: _reference_to_wire(item) for key, item in value.items()}


def _reference_from_wire(value):
    if isinstance(value, list):
        return [_reference_from_wire(item) for item in value]
    if not isinstance(value, dict):
        return value
    if "__en__" in value:
        return Aggregation(value["__en__"])
    if "__tu__" in value:
        return tuple(_reference_from_wire(item) for item in value["__tu__"])
    if "__nd__" in value:
        dtype, shape, data = value["__nd__"]
        array = np.frombuffer(base64.b64decode(data), dtype=np.dtype(dtype))
        return array.reshape(tuple(shape)).copy()
    if "__dc__" in value:
        fields = {key: _reference_from_wire(item) for key, item in value["__f__"].items()}
        return _REFERENCE_CLASSES[value["__dc__"]](**fields)
    return {key: _reference_from_wire(item) for key, item in value.items()}


def _reference_roundtrip(value):
    data = json.dumps(_reference_to_wire(value), separators=(",", ":")).encode("utf-8")
    return _reference_from_wire(json.loads(data.decode("utf-8")))


def _bits(value):
    """``value`` with every type spelled out and every float as its 8 bytes.

    ``==`` alone would let ``1`` stand in for ``1.0`` or ``True``, ``-0.0``
    for ``0.0`` and a list for the tuple it replaced.
    """
    if isinstance(value, float):
        return ("float", struct.pack("<d", value))
    if dataclasses.is_dataclass(value):
        return (
            type(value),
            [_bits(getattr(value, field.name)) for field in dataclasses.fields(value)],
        )
    if isinstance(value, (list, tuple)):
        return (type(value), [_bits(item) for item in value])
    if isinstance(value, dict):
        return (dict, [(key, _bits(item)) for key, item in value.items()])
    return (type(value), value)


def _assert_codecs_agree(value):
    expected = _bits(value)
    assert _bits(_wire_roundtrip(value)) == expected
    assert _bits(_reference_roundtrip(value)) == expected


_VALUE_STRATEGIES = {
    **{cls.__name__: strategy for cls, strategy in _MESSAGE_STRATEGIES.items()},
    "Interval": st.builds(
        lambda low, width: Interval(low, low + width),
        st.integers(-(2**40), 2**40),
        st.integers(0, 2**20),
    ),
    "RangeQuery": _queries(),
    "QueryBudget": _budgets,
}
# NaN has no bit-exact claim (see test_nan_roundtrips_as_nan); every other
# double does, infinities and signed zeros included.
_scalars = (
    st.none()
    | st.booleans()
    | st.integers(-(2**63), 2**63)
    | st.floats(allow_nan=False)
    | st.text(max_size=8)
)


def test_every_wire_class_has_a_list_strategy():
    from repro.federation import transport

    assert set(_VALUE_STRATEGIES) == set(transport._WIRE_DATACLASSES)


# 0 and 1 stay plain arrays, 2 is the shortest column block, "n" the general one.
@pytest.mark.parametrize("size", [0, 1, 2, "n"])
@pytest.mark.parametrize("name", sorted(_VALUE_STRATEGIES))
def test_lists_of_one_class_roundtrip_like_the_reference(name, size):
    low, high = (3, 9) if size == "n" else (size, size)

    @given(st.lists(_VALUE_STRATEGIES[name], min_size=low, max_size=high))
    def check(values):
        _assert_codecs_agree(values)
        _assert_codecs_agree({"batch": values, "also": tuple(values)})
        encoded = json.loads(serialize(values))
        # The block is what is claimed to be on the wire, not a per-object list.
        assert isinstance(encoded, dict) == (len(values) >= 2)

    check()


@given(
    st.lists(
        st.one_of(*_VALUE_STRATEGIES.values()) | _scalars | st.lists(_scalars, max_size=3),
        max_size=8,
    )
)
def test_mixed_class_and_mixed_primitive_lists_roundtrip(values):
    _assert_codecs_agree(values)


@given(
    st.recursive(
        _scalars | _allocations | _budgets,
        lambda inner: st.lists(inner, max_size=4).map(tuple)
        | st.lists(inner, max_size=4)
        | st.dictionaries(st.text(max_size=4).filter(lambda key: not key.startswith("__")), inner, max_size=3),
        max_leaves=12,
    )
)
def test_nested_tuples_lists_and_mappings_roundtrip(value):
    _assert_codecs_agree(value)


@given(
    st.lists(_query_requests(), min_size=2, max_size=6),
    st.tuples(st.text(max_size=16), st.text(max_size=16)),
)
def test_seed_material_and_trace_context_ride_a_block(requests, trace_context):
    # Columns of tuples-or-None: per-element tagged values inside the block.
    requests = [
        dataclasses.replace(request, trace_context=trace_context if position % 2 else None)
        for position, request in enumerate(requests)
    ]
    _assert_codecs_agree(requests)
    for original, restored in zip(requests, _wire_roundtrip(requests)):
        assert type(restored.seed_material) is type(original.seed_material)
        assert type(restored.query.ranges) is dict


def _packed(*values: float) -> dict:
    return {"__d__": base64.b64encode(struct.pack(f"<{len(values)}d", *values)).decode()}


def test_a_block_names_its_class_once_and_keeps_scalar_columns_plain():
    # Class and row count once; a varying int or str column stays a plain
    # array, a constant one goes once, a float column as packed doubles.
    allocations = [
        AllocationMessage(query_id=i, provider_id="p", sample_size=i * i) for i in range(3)
    ]
    assert json.loads(serialize(allocations)) == {
        "__dc__": "AllocationMessage",
        "__n__": 3,
        "__cols__": [[0, 1, 2], {"__k__": "p"}, [0, 1, 4]],
    }
    summaries = [SummaryMessage(i, "p", float(i), 0.5) for i in range(2)]
    assert json.loads(serialize(summaries)) == {
        "__dc__": "SummaryMessage",
        "__n__": 2,
        "__cols__": [[0, 1], {"__k__": "p"}, _packed(0.0, 1.0), {"__k__": 0.5}],
    }
    # "Constant" means one bit pattern: 0.0 == -0.0, yet they are two values.
    zeros = [SummaryMessage(i, "p", 0.0, (-0.0, 0.0)[i]) for i in range(2)]
    assert json.loads(serialize(zeros))["__cols__"][2:] == [
        {"__k__": 0.0},
        _packed(-0.0, 0.0),
    ]
    estimates = [EstimateMessage(i, "p", -float(i), None, bool(i)) for i in range(2)]
    assert json.loads(serialize(estimates)) == {
        "__dc__": "EstimateMessage",
        "__n__": 2,
        "__cols__": [
            [0, 1],
            {"__k__": "p"},
            _packed(-0.0, -1.0),
            {"__k__": None},  # the plain path sends no sensitivity
            [False, True],
        ],
    }
    queries = [RangeQuery.count({"age": (1, 2)}), RangeQuery.sum({"age": (3, 4), "dept": (5, 6)})]
    assert json.loads(serialize(queries)) == {
        "__dc__": "RangeQuery",
        "__n__": 2,
        "__cols__": [
            {"__en__": ["count", "sum"]},  # an enum column is its values
            {
                "__maps__": [
                    [["age"], ["age", "dept"]],
                    {"__dc__": "Interval", "__n__": 3, "__cols__": [[1, 3, 5], [2, 4, 6]]},
                ]
            },
            [None, "measure"],
        ],
    }
    assert json.loads(serialize(queries[:1])) == [
        {
            "__dc__": "RangeQuery",
            "__f__": [
                {"__en__": "count"},
                {"age": {"__dc__": "Interval", "__f__": [1, 2]}},
                None,
            ],
        }
    ]


def _interval_block(rows, low, high) -> dict:
    return {"__dc__": "Interval", "__n__": rows, "__cols__": [low, high]}


def _summary_block(rows, counts) -> dict:
    return {
        "__dc__": "SummaryMessage",
        "__n__": rows,
        "__cols__": [list(range(rows)), {"__k__": "p"}, counts, {"__k__": 0.5}],
    }


# -- 1c. blocks of awkward values, and what the codec refuses to carry ------------

# Doubles where ``==`` and bits disagree: signed zeros, infinities, the
# smallest subnormal and normal, plus ordinary ones.  NaN is the canonical
# quiet NaN here, so the reference codec (JSON's NaN token) agrees bit for
# bit; payload NaNs are checked on their own below.
_awkward_floats = st.sampled_from(
    [0.0, -0.0, float("nan"), float("inf"), float("-inf"), 5e-324, -5e-324,
     2.2250738585072014e-308, 1e-310, 1.0, 0.1]
) | st.floats(allow_nan=False)
_ints_or_bools = _ids | st.booleans()  # a bool beside ints in one column

_FIELD_VALUES = {
    "query_id": _ints_or_bools,
    "provider_id": _provider_ids,
    "query": _queries(),
    "sampling_rate": _awkward_floats,
    "seed_material": st.none() | st.lists(_ids, max_size=3).map(tuple),
    "trace_context": st.none() | st.tuples(st.text(max_size=4), st.text(max_size=4)),
    "noisy_cluster_count": _awkward_floats,
    "noisy_avg_proportion": _awkward_floats,
    "sample_size": _ints_or_bools,
    "value": _awkward_floats,
    "smooth_sensitivity": st.none() | _awkward_floats,
    "approximated": st.booleans() | _ids,
    "num_rows": _ints_or_bools,
    "num_columns": _ids,
    "delta_watermark": _ints_or_bools,
    "layout_epoch": _ids,
    "compacted": st.booleans(),
}


@st.composite
def _awkward_blocks(draw, cls):
    """2-8 messages whose columns are each drawn per row, or one value
    repeated down the column, or all ``None`` — the shapes the codec
    encodes differently."""
    rows = draw(st.integers(min_value=2, max_value=8))
    columns = []
    for field in dataclasses.fields(cls):
        values = _FIELD_VALUES[field.name]
        shape = draw(st.sampled_from(["each", "same", "none"]))
        if shape == "each":
            columns.append(draw(st.lists(values, min_size=rows, max_size=rows)))
        else:
            one = None if shape == "none" else draw(values)
            columns.append([one] * rows)
    return [cls(*row) for row in zip(*columns)]


def test_every_message_field_has_an_awkward_strategy():
    assert {
        field.name for cls in ALL_MESSAGE_TYPES for field in dataclasses.fields(cls)
    } == set(_FIELD_VALUES)


@pytest.mark.parametrize(
    "message_type", ALL_MESSAGE_TYPES, ids=[cls.__name__ for cls in ALL_MESSAGE_TYPES]
)
def test_blocks_of_awkward_values_roundtrip_bit_for_bit(message_type):
    @given(_awkward_blocks(message_type))
    def check(messages):
        _assert_codecs_agree(messages)
        _assert_codecs_agree({"answers": messages, "reuse": [True] * len(messages)})

    check()


def test_packed_columns_keep_every_nan_payload():
    # JSON's NaN token is one NaN; a packed column is eight bytes a value.
    payloads = (0x7FF8000000000000, 0xFFF8000000000000, 0x7FF8000000000123)
    nans = [struct.unpack("<d", struct.pack("<Q", bits))[0] for bits in payloads]
    for column in (nans, [nans[1], nans[1]], [-0.0, 0.0, *nans]):
        messages = [EstimateMessage(i, "p", value, None, True) for i, value in enumerate(column)]
        assert _bits(_wire_roundtrip(messages)) == _bits(messages)


@pytest.mark.parametrize("size", [0, 1, 2, "n"])
@pytest.mark.parametrize("name", sorted(_PROVIDER_LOCAL))
def test_provider_local_values_are_refused_not_dropped(name, size):
    """Neither a provider's diagnostics nor the aggregator's record of a
    release is a wire type: serialising one raises a typed error — alone,
    in a list, or beside ``size`` released estimates in an answer reply —
    instead of the reply quietly going out without it."""
    from repro.federation import transport

    low, high = (3, 9) if size == "n" else (size, size)
    assert name not in transport._WIRE_DATACLASSES
    refusal = "provider-local" if name == "ProviderDiagnostics" else "cannot serialise"

    @given(st.lists(_estimates, min_size=low, max_size=high), _PROVIDER_LOCAL[name])
    def check(estimates, local):
        reuse = [False] * len(estimates)
        for payload in (
            local,
            [local, local],
            [*estimates, local],
            {"answers": estimates, "reuse": reuse, "diagnostics": [local]},
            {"seq": 1, "ok": {"answers": [local, *estimates], "reuse": [False, *reuse]}},
        ):
            with pytest.raises(TransportError, match=refusal):
                serialize(payload)

    check()


def test_row_counts_are_bounded_by_the_frame_not_by_the_claim():
    # A constant column costs no bytes per row.  Without a bound, a few
    # bytes could ask for a billion objects; with it, the blocks of one
    # frame build at most as many rows as the frame has bytes, together.
    import tracemalloc

    hostile = json.dumps(_interval_block(10**9, {"__k__": 1}, {"__k__": 2})).encode()
    tracemalloc.start()
    try:
        with pytest.raises(TransportError, match="exceeds what the frame can carry"):
            deserialize(hostile)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024
    honest = _interval_block(20, {"__k__": 1}, {"__k__": 2})
    assert deserialize(json.dumps(honest).encode()) == [Interval(1, 2)] * 20
    # Each block alone fits its frame; the budget is shared, so many do not.
    many = json.dumps([honest] * 8).encode()
    assert 20 * 8 <= len(many)
    assert len(deserialize(many)) == 8
    greedy = [_interval_block(len(many) // 3, {"__k__": 1}, {"__k__": 2})] * 8
    with pytest.raises(TransportError, match="exceeds what the frame can carry"):
        deserialize(json.dumps(greedy).encode())


_MALFORMED = {
    "row with too few fields": {"__dc__": "Interval", "__f__": [1]},
    "row with too many fields": {"__dc__": "Interval", "__f__": [1, 2, 3]},
    "row with named fields": {"__dc__": "Interval", "__f__": {"low": 1, "high": 2}},
    "row without fields": {"__dc__": "Interval"},
    "row a constructor rejects": {"__dc__": "Interval", "__f__": [5, 1]},
    "row of an unknown class": {"__dc__": "Intervall", "__f__": [1, 2]},
    "row of an unhashable class": {"__dc__": ["Interval"], "__f__": [1, 2]},
    "row of provider diagnostics": {"__dc__": "ProviderDiagnostics", "__f__": [0] * 9},
    "query without ranges": {"__dc__": "RangeQuery", "__f__": [{"__en__": "count"}, {}, None]},
    "block with too few columns": {"__dc__": "Interval", "__n__": 2, "__cols__": [[1, 2]]},
    "block with too many columns": {"__dc__": "Interval", "__n__": 1, "__cols__": [[1], [2], [3]]},
    "block with ragged columns": _interval_block(3, [1, 2, 3], [4, 5]),
    "block with a scalar column": _interval_block(2, [1, 2], 7),
    "block with a string column": _interval_block(2, [1, 2], "34"),
    "block with a mapping column": _interval_block(2, [1, 2], {"a": 3}),
    "block with a row for a column": _interval_block(
        1, [1], {"__dc__": "Interval", "__f__": [1, 2]}
    ),
    "block of an unknown class": {"__dc__": "Table", "__n__": 1, "__cols__": [[1], [2]]},
    "block of a retired class": {"__dc__": "LocalAnswer", "__n__": 0, "__cols__": [[], []]},
    "block a constructor rejects": _interval_block(2, [1, 5], [2, 1]),
    "block with too few enum values": {
        "__dc__": "RangeQuery",
        "__n__": 2,
        "__cols__": [{"__en__": ["count"]}, [{"a": [1, 2]}, {"a": [1, 2]}], [None, None]],
    },
    "block with one enum value for a column": {
        "__dc__": "RangeQuery",
        "__n__": 1,
        "__cols__": [{"__en__": "count"}, [{"a": [1, 2]}], [None]],
    },
    # __n__ is the only length the decoder trusts: it must be a row count
    # the frame can pay for, and every column must agree with it.
    "block without a row count": {"__dc__": "Interval", "__cols__": [[1, 3], [2, 4]]},
    "row count negative": _interval_block(-1, [], []),
    "row count a bool": _interval_block(True, [1], [2]),
    "row count a float": _interval_block(2.0, [1, 3], [2, 4]),
    "row count a string": _interval_block("2", [1, 3], [2, 4]),
    "row count larger than the frame": _interval_block(
        10**9, {"__k__": 1}, {"__k__": 2}
    ),
    "row count beyond any frame": _interval_block(2**64, {"__k__": 1}, {"__k__": 2}),
    "columns longer than the row count": _interval_block(1, [1, 3], [2, 4]),
    "columns shorter than the row count": _interval_block(3, [1, 3], [2, 4]),
    "nested block disagreeing with the row count": {
        "__dc__": "RangeQuery",
        "__n__": 2,
        "__cols__": [
            {"__en__": ["count", "count"]},
            {"__maps__": [[["a"], ["a"]], _interval_block(3, [1, 2, 3], [4, 5, 6])]},
            {"__k__": None},
        ],
    },
    "constant column holding a list": _interval_block(2, {"__k__": [1]}, [2, 3]),
    "constant column holding a dict": _interval_block(2, {"__k__": {"a": 1}}, [2, 3]),
    "constant column holding a tagged value": _interval_block(
        2, {"__k__": {"__tu__": [1]}}, [2, 3]
    ),
    "constant column with a second key": _interval_block(
        2, {"__k__": 1, "__n__": 2}, [2, 3]
    ),
    "constant outside a block": {"__k__": 1},
    "packed column of bad base64": _summary_block(1, {"__d__": "!!!!!!!!!!!!"}),
    "packed column too long": _summary_block(1, _packed(1.0, 2.0)),
    "packed column too short": _summary_block(2, _packed(1.0)),
    "packed column misplaced padding": _summary_block(1, {"__d__": "AAAAAAAA===="}),
    "packed column not a string": _summary_block(1, {"__d__": 5}),
    "packed outside a block": _packed(1.0),
    "columns without a class": {"__cols__": [[1], [2]]},
    "fields without a class": {"__f__": [1, 2]},
    "mappings with too few values": {"__maps__": [[["a", "b"], ["c"]], [1, 2]]},
    "mappings with too many values": {"__maps__": [[["a"]], [1, 2]]},
    "mappings with a non-string key": {"__maps__": [[["a", 1]], [1, 2]]},
    "mappings with an unhashable key": {"__maps__": [[[["a"]]], [1]]},
    "mappings with a string for keys": {"__maps__": [["ab"], [1, 2]]},
    "mappings with scalar values": {"__maps__": [[["a"]], 1]},
    "mappings of the wrong arity": {"__maps__": [[["a"]]]},
    "tuple of a scalar": {"__tu__": 3},
    "tuple of a string": {"__tu__": "abc"},
    "array of a bad dtype": {"__nd__": ["no-such-dtype", [1], ""]},
    "array of the wrong shape": {"__nd__": ["int64", [3], ""]},
    "unknown enum value": {"__en__": "median"},
    "unknown enum value in a column": {"__en__": ["count", "median"]},
    "unhashable enum value": {"__en__": {"count": 1}},
}


@pytest.mark.parametrize("name", sorted(_MALFORMED))
def test_malformed_wire_values_are_refused_with_a_typed_error(name):
    for wire in (_MALFORMED[name], {"seq": 1, "payload": [0, _MALFORMED[name]]}):
        with pytest.raises(TransportError):
            deserialize(json.dumps(wire).encode("utf-8"))


@pytest.mark.parametrize(
    "key",
    ["__dc__", "__f__", "__cols__", "__n__", "__k__", "__d__", "__maps__", "__tu__", "__nd__", "__en__"],
)
def test_reserved_keys_in_a_mapping_are_refused_on_the_way_out(key):
    for value in ({key: 1}, [{key: 1}, {"fine": 2}], {"nested": ({"fine": 1}, {key: 2})}):
        with pytest.raises(TransportError, match="reserved"):
            serialize(value)
    with pytest.raises(TransportError, match="non-reserved strings"):
        serialize([{1: "integer key"}, {"fine": 2}])


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


def _request_carrying(value: bytes, *, seq: bool) -> bytes:
    """A well-formed summary request, but for one wire value inside its payload."""
    head = b'{"seq":7,' if seq else b"{"
    return (
        head
        + b'"op":"summary","provider":0,"payload":{"epsilon":0.5,"requests":['
        + value
        + b"]}}"
    )


# Well-framed, valid JSON, an envelope of the right shape — but the payload
# holds a value the codec must refuse.  Decoding fails before any envelope
# exists; a readable seq still earns the peer a typed reply.
_UNDECODABLE_VALUES = {
    "interval-low-above-high": b'{"__dc__":"Interval","__f__":[5,1]}',  # was QueryError
    "query-without-ranges": b'{"__dc__":"RangeQuery","__f__":[{"__en__":"count"},{},null]}',
    "fields-of-the-wrong-shape": b'{"__dc__":"Interval","__f__":{"low":1,"high":2}}',  # was AttributeError
    "block-a-constructor-rejects": b'{"__dc__":"Interval","__n__":2,"__cols__":[[1,5],[2,1]]}',
}
_HOSTILE_ENVELOPES += [
    pytest.param(_request_carrying(value, seq=seq), seq, id=f"{name}-{seq}")
    for name, value in _UNDECODABLE_VALUES.items()
    for seq in (True, False)
]


@pytest.mark.parametrize("envelope,replies", _HOSTILE_ENVELOPES)
def test_hostile_envelopes_get_a_typed_reply_or_drop_the_connection(
    envelope, replies, monkeypatch
):
    """The server boundary validates before it indexes: loopback and socket."""
    payload = envelope if isinstance(envelope, bytes) else serialize(envelope)
    calls: list[str] = []
    with FederatedAQPSystem.from_table(
        _table(200), config=_config(kind="socket")
    ) as system:
        transport = system.aggregator.transport
        for provider in transport.providers:
            for phase in ("prepare_summary_batch", "answer_batch", "forget_batch"):
                monkeypatch.setattr(
                    provider, phase, lambda *a, _phase=phase, **k: calls.append(_phase)
                )
        # The loopback carrier's server is this same method, minus the socket.
        if replies:
            (reply_frame,) = transport._serve_frame(payload)
            (reply,) = FrameDecoder().feed(reply_frame)
            reply = deserialize(reply)
            assert reply["seq"] == 7
            assert reply["err"][0] in ("TransportError", "KeyError")
        else:
            with pytest.raises(TransportError):
                transport._serve_frame(payload)
        # Over real TCP the handler thread must end the same way, not die on
        # an unhandled exception: a reply frame, or a closed connection.
        with socket_module.create_connection(("127.0.0.1", transport.port), 5.0) as sock:
            sock.settimeout(5.0)
            sock.sendall(encode_frame(payload))
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
        assert calls == []


def test_undecodable_frame_drops_the_socket_connection():
    """A frame that is not JSON escaped the handler as an unhandled task error."""
    with FederatedAQPSystem.from_table(
        _table(200), config=_config(kind="socket")
    ) as system:
        transport = system.aggregator.transport
        hostile_length = WIRE_MAGIC + struct.pack("!I", transport.max_frame_bytes + 1)
        for stream in (
            encode_frame(b"not json at all {{{"),
            encode_frame(b"[" * 100_000 + b"]" * 100_000),  # RecursionError inside json
            hostile_length,  # over the frame ceiling: refused from the header alone
            b"GET / HTTP/1.1\r\n\r\n",
        ):
            with socket_module.create_connection(("127.0.0.1", transport.port), 5.0) as sock:
                sock.settimeout(5.0)
                sock.sendall(stream)
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


def _server_threads(transport: SocketTransport) -> list[threading.Thread]:
    return [transport._accept_thread, *(thread for thread, _ in transport._handlers)]


@pytest.mark.parametrize("in_flight", [False, True], ids=["idle", "in-flight"])
def test_socket_server_close_joins_every_thread_inside_its_timeout(in_flight, monkeypatch):
    providers = FederatedAQPSystem.from_table(_table(200), config=_config()).providers
    transport = SocketTransport(providers)
    assert [transport._call(index, "ping", {}) for index in (0, 1)] == ["pong"] * 2
    threads = _server_threads(transport)
    assert len(threads) == 3 and all(thread.is_alive() for thread in threads)

    outcome: list[BaseException] = []
    if in_flight:
        entered = threading.Event()

        def slow_forget(query_ids):
            entered.set()
            time.sleep(0.3)

        def client():
            try:
                transport.forget_batch(0, [1])
            except TransportError as error:
                outcome.append(error)

        monkeypatch.setattr(providers[0], "forget_batch", slow_forget)
        caller = threading.Thread(target=client, daemon=True)
        caller.start()
        assert entered.wait(5.0)

    started = time.monotonic()
    transport.close()
    assert time.monotonic() - started < 5.0  # transport._CLOSE_TIMEOUT
    assert [thread.is_alive() for thread in threads] == [False] * 3
    if in_flight:
        # The request ran to its end; its reply had nowhere left to go.
        caller.join(5.0)
        assert not caller.is_alive()
        assert len(outcome) == 1

    started = time.monotonic()
    transport.close()  # a no-op, not a second teardown
    assert time.monotonic() - started < 0.5
    with pytest.raises(TransportError, match="closed"):
        transport._call(0, "ping", {})
    with SocketTransport(providers) as fresh:
        assert fresh._call(1, "ping", {}) == "pong"
        threads = _server_threads(fresh)
    assert not any(thread.is_alive() for thread in threads)


def test_socket_server_gives_concurrent_clients_their_own_replies_and_exact_counters():
    """More client threads than cores over four connections, switching often."""
    config = dataclasses.replace(_config(kind="socket"), num_providers=4)
    workers = 2 * (os.cpu_count() or 1) + 2
    rounds = 60
    sent: list[int] = []
    received: list[int] = []
    mismatched: list[tuple[int, int]] = []
    failures: list[BaseException] = []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with FederatedAQPSystem.from_table(_table(400), config=config) as system:
            transport = system.aggregator.transport
            frame_request, serve_frame = transport._frame_request, transport._serve_frame
            requested = threading.local()

            def recording_request(*args, **kwargs):
                requested.seq, frame = frame_request(*args, **kwargs)
                sent.append(len(frame))
                return requested.seq, frame

            def recording_serve(request):
                reply_frames = serve_frame(request)
                received.extend(map(len, reply_frames))
                return reply_frames

            transport._frame_request = recording_request
            transport._serve_frame = recording_serve
            deadline = time.monotonic() + 30.0

            def client(worker: int) -> None:
                try:
                    for step in range(rounds):
                        if time.monotonic() > deadline:
                            raise TimeoutError("stress run overran its bound")
                        # A forget is as cheap as a ping but has a payload
                        # whose size differs from request to request.
                        index = (worker + step) % 4
                        reply = transport._roundtrip(
                            index,
                            "forget",
                            {"query_ids": list(range(10**6, 10**6 + step % 7))},
                            fault=None,
                            duplicate=False,
                        )
                        if reply["seq"] != requested.seq or reply.get("ok") is not True:
                            mismatched.append((requested.seq, reply["seq"]))
                except BaseException as error:  # noqa: BLE001 - reported below
                    failures.append(error)

            threads = [
                threading.Thread(target=client, args=(worker,), daemon=True)
                for worker in range(workers)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(max(0.0, deadline + 5.0 - time.monotonic()))
            assert not any(thread.is_alive() for thread in threads)
            assert failures == [] and mismatched == []
            stats = transport.snapshot_stats()
            assert len(sent) == len(received) == workers * rounds
            assert stats.messages == len(sent) + len(received)
            assert stats.bytes_sent == sum(sent) + sum(received)
            assert stats.frames_duplicated == 0
            assert len(transport._handlers) == 4
    finally:
        sys.setswitchinterval(interval)


def test_procpool_delta_path_pickles_zero_row_bytes():
    """Delta rows reach workers through shared memory only.

    Both shipping flavors are exercised — rows pending *before* the workers
    start (pre-populated into the append buffer at start) and rows ingested
    *while* they are live (mirrored to workers by buffer offset).  The
    carrier's accounting must show every shipped row in the shared-memory
    ledger and zero bytes of pickled row payloads — and the pipe traffic of
    the mirrored append must not scale with the rows; answers stay
    bit-identical to the in-process transport.
    """
    rng = np.random.default_rng(67)

    def rows(count: int) -> Table:
        return Table(
            _SCHEMA,
            {
                "age": rng.integers(0, 100, count),
                "hours": rng.integers(0, 50, count),
                "dept": rng.integers(0, 10, count),
            },
        )

    base, early, late = rows(400), rows(30), rows(1000)
    tokens = [(9, index) for index in range(len(_QUERIES))]
    serial_config = SystemConfig(
        cluster_size=32,
        num_providers=2,
        seed=7,
        ingest=IngestConfig(max_delta_rows=10**6),
    )
    pooled_config = serial_config.with_transport(TransportConfig(kind="process"))
    with FederatedAQPSystem.from_table(base, config=pooled_config) as pooled:
        pooled.ingest(early)  # pending before the workers exist
        first = pooled.execute_batch(_QUERIES, seed_tokens=tokens)
        stats = pooled.aggregator.transport.carrier_stats
        assert stats["delta_rows_shipped"] == early.num_rows
        pipe_bytes = pooled.transport_stats().bytes_sent
        pooled.ingest(late)  # mirrored onto live workers
        # One small descriptor + ack per provider — not 1000 rows x 3 columns.
        assert pooled.transport_stats().bytes_sent - pipe_bytes < late.memory_bytes()
        second = pooled.execute_batch(_QUERIES, seed_tokens=tokens)
        assert stats["delta_rows_shipped"] == early.num_rows + late.num_rows
        assert stats["delta_shared_bytes"] > 0
        assert stats["delta_rows_pickled_bytes"] == 0
    with FederatedAQPSystem.from_table(base, config=serial_config) as plain:
        plain.ingest(early)
        plain_first = plain.execute_batch(_QUERIES, seed_tokens=tokens)
        plain.ingest(late)
        plain_second = plain.execute_batch(_QUERIES, seed_tokens=tokens)
    assert [r.value for r in first.results] == [r.value for r in plain_first.results]
    assert [r.value for r in second.results] == [r.value for r in plain_second.results]


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
