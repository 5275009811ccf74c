"""Pluggable transports: the provider boundary as a (potential) wire boundary.

The federated protocol is message-shaped — a query request, two noisy
scalars, one integer allocation, one noisy estimate per provider — so the
aggregator/provider boundary can become a real wire without touching DP
semantics.  This module is the **one** way to run a provider somewhere
else; it supplies four interchangeable carriers of the same request/reply
envelope (``{seq, op, provider, payload}`` → :func:`serve_request`):

``InProcessTransport``
    Today's direct method calls.  The default; zero overhead, no wire.

``LoopbackTransport``
    Every protocol message makes the full serialize → frame → deframe →
    deserialize round trip in-process, with no sockets.  This is the
    cheapest way to prove the wire codec is lossless: a federation on the
    loopback transport must produce bit-identical answers to the in-process
    one, or the codec dropped information.

``SocketTransport``
    Blocking TCP on localhost with length-prefixed framing.  One listening
    socket hosts every provider: an accept thread plus one handler thread
    per connection, so a request reaches its provider in one thread
    hand-off and the reply goes back in one more; the aggregator keeps one
    blocking client connection per provider.  Call timeouts come from
    :attr:`~repro.config.ResilienceConfig.provider_timeout_seconds`, and a
    timeout or lost connection surfaces as
    :class:`~repro.errors.TransportError` /
    :class:`~repro.errors.TransportTimeoutError`, which the aggregator's
    retry/degrade/quarantine path treats exactly like a failed provider.

``ProcessTransport``
    One persistent worker process per provider, over a pipe; the worker
    maps the provider's rows from shared memory
    (:mod:`repro.federation.procpool`).  A dead or hung worker is a lost
    connection, and this carrier's "reconnect" is a respawn.

Whether providers work concurrently is a property of the carrier, never a
setting: the aggregator posts a phase to every provider before it awaits
the first reply, which only endpoints in other processes can exploit — the
other three run each call to completion, strictly in order.  The ``RAQP``
column-block JSON codec below is the only codec for wires that leave the
process tree; the pipe between a parent and its own child keeps
:mod:`multiprocessing`'s object transport (both ends run this very code,
and the JSON codec costs more per batch than process hosting saves — see
``docs/performance.md``).

Unlike the :class:`~repro.federation.network.SimulatedNetwork` — which
models the *paper's* cost accounting and stays authoritative for traces —
the wire carriers account their **real** traffic in their own
:class:`~repro.federation.network.NetworkStats`: ``messages`` counts
frames (pipe envelopes on the process carrier), ``bytes_sent`` counts
framed (pickled) bytes, and ``frames_duplicated`` counts reply frames
delivered more than once and discarded by the receiver's sequence check.

**What may cross.**  The codec builds the classes of
:data:`~repro.federation.messages.ALL_MESSAGE_TYPES` and the value types
they carry (``RangeQuery``, ``Interval``, ``QueryBudget``), nothing else.
A provider's :class:`~repro.core.result.ProviderDiagnostics` — the
estimate before noise, the noise, the exact covering count — is refused
with a :class:`~repro.errors.TransportError`, never dropped silently, and
no op returns one: the server side (:func:`_execute_op`) never asks the
provider for them.

**Determinism.**  The wire codec round-trips every value exactly: integers
stay integers, floats serialise via ``repr`` (which round-trips IEEE-754
doubles bit-for-bit), tuples and numpy arrays are tagged so their types
survive.  A batch — a list of two or more messages of one class — is
written column by column (:func:`_list_to_wire`: the class and the row
count named once, then one entry per field, a constant column once and a
float column as packed doubles), which changes how many bytes a frame
takes and nothing about what comes out: every object is rebuilt through
its own constructor, in list order.  Provider-side randomness is keyed by
``seed_material`` and request order, both of which every carrier
preserves — so process, socket, loopback, and in-process federations are
bit-identical under a fixed seed.

**Fault points.**  When the owning aggregator installs a
:class:`~repro.testing.faults.FaultInjector`, the wire carriers consult it
once per phase call: ``drop_frame`` loses the request frame before the
provider ever runs, ``disconnect`` tears the connection down mid-phase
(the process carrier kills the worker), ``delay_frame`` stalls the call for
:attr:`~repro.testing.faults.FaultSpec.delay_seconds`, and
``duplicate_frame`` delivers the reply twice (the duplicate is discarded
by sequence number and counted).  Drops and disconnects raise
:class:`~repro.errors.TransportError` *before* the provider consumes any
randomness, so a retried attempt is bit-identical to a never-faulted one.
Provider faults (worker crash, hang, killed connection) are offered to the
carrier through :meth:`Transport.inject`; only the process carrier can
make them happen for real.
"""

from __future__ import annotations

import base64
import dataclasses
import json
import pickle
import socket as socket_module
import struct
import threading
import time
from collections import deque
from contextlib import nullcontext
from typing import Any, Callable, Mapping, Sequence

import numpy as np

from .. import errors as _errors
from ..core.accounting import QueryBudget
from ..core.result import ProviderDiagnostics
from ..errors import ReproError, TransportError, TransportTimeoutError
from ..query.model import Aggregation, Interval, RangeQuery
from ..storage.layout import KernelTelemetry, merge_active_telemetry, telemetry_active
from ..storage.table import Table
from .messages import (
    AllocationMessage,
    EstimateMessage,
    IngestAck,
    IngestRequest,
    QueryRequest,
    SummaryMessage,
)
from .network import NetworkStats
from .procpool import ProviderHost
from .provider import DataProvider

__all__ = [
    "Transport",
    "InProcessTransport",
    "LoopbackTransport",
    "SocketTransport",
    "ProcessTransport",
    "create_transport",
    "serve_request",
    "serialize",
    "deserialize",
    "encode_frame",
    "FrameDecoder",
    "WIRE_MAGIC",
    "DEFAULT_MAX_FRAME_BYTES",
]


# -- wire codec -----------------------------------------------------------------

_TAG_DATACLASS = "__dc__"
_TAG_FIELDS = "__f__"
_TAG_COLUMNS = "__cols__"
_TAG_ROWS = "__n__"
_TAG_CONSTANT = "__k__"
_TAG_DOUBLES = "__d__"
_TAG_MAPPINGS = "__maps__"
_TAG_TUPLE = "__tu__"
_TAG_NDARRAY = "__nd__"
_TAG_ENUM = "__en__"
_RESERVED_KEYS = frozenset(
    {
        _TAG_DATACLASS,
        _TAG_FIELDS,
        _TAG_COLUMNS,
        _TAG_ROWS,
        _TAG_CONSTANT,
        _TAG_DOUBLES,
        _TAG_MAPPINGS,
        _TAG_TUPLE,
        _TAG_NDARRAY,
        _TAG_ENUM,
    }
)

_PLAIN_TYPES = frozenset({bool, int, float, str, type(None)})
"""Exact types the JSON encoder and decoder map onto themselves.  A list
holding nothing else crosses the codec untouched, in either direction."""


_WIRE_FIELDS: dict[type, tuple[str, ...]] = {
    cls: tuple(field.name for field in dataclasses.fields(cls))
    for cls in (
        QueryRequest,
        SummaryMessage,
        AllocationMessage,
        EstimateMessage,
        IngestRequest,
        IngestAck,
        Interval,
        RangeQuery,
        QueryBudget,
    )
}
"""Types the codec reconstructs by name — every protocol message plus the
value types they carry (queries, intervals, budgets) — each with its field
names in constructor order, computed once here.  This is the whole list:
anything else a provider holds stays with the provider."""

_WIRE_DATACLASSES: dict[str, type] = {cls.__name__: cls for cls in _WIRE_FIELDS}


def _to_wire(value: Any) -> Any:
    """Lower a protocol value to JSON-representable form, losslessly.

    A registered dataclass becomes a positional row
    ``{"__dc__": name, "__f__": [field, ...]}``; a list of two or more of
    one registered class becomes a column block (:func:`_list_to_wire`).
    """
    cls = type(value)
    if cls in _PLAIN_TYPES:
        return value
    if cls is list:
        return _list_to_wire(value)
    names = _WIRE_FIELDS.get(cls)
    if names is not None:
        row = [getattr(value, name) for name in names]
        return {_TAG_DATACLASS: cls.__name__, _TAG_FIELDS: _items_to_wire(row)}
    if isinstance(value, tuple):
        return {_TAG_TUPLE: _list_to_wire(value)}
    if cls is dict or isinstance(value, Mapping):
        return dict(zip(_wire_keys(value), _items_to_wire(list(value.values()))))
    if isinstance(value, Aggregation):
        return {_TAG_ENUM: value.value}
    if isinstance(value, np.ndarray):
        data = base64.b64encode(np.ascontiguousarray(value).tobytes()).decode("ascii")
        return {_TAG_NDARRAY: [str(value.dtype), list(value.shape), data]}
    if isinstance(value, np.bool_):
        return bool(value)
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.floating):
        return float(value)
    if isinstance(value, (int, float, str)):
        return value
    if isinstance(value, list):
        return _list_to_wire(value)
    if cls is ProviderDiagnostics:
        raise TransportError(
            "ProviderDiagnostics is provider-local: the estimate before noise, "
            "the noise and the exact counts never go on the wire"
        )
    raise TransportError(f"cannot serialise {cls.__name__!r} for the wire")


def _wire_keys(mapping: Mapping) -> list[str]:
    """A mapping's keys, once they are known to be non-reserved strings."""
    keys = list(mapping)
    for key in keys:
        if not isinstance(key, str) or key in _RESERVED_KEYS:
            raise TransportError(
                f"cannot serialise mapping key {key!r}: keys must be "
                f"non-reserved strings"
            )
    return keys


def _items_to_wire(values: list) -> list:
    """Element-wise :func:`_to_wire`; plain values are left to the JSON encoder."""
    if _PLAIN_TYPES.issuperset(map(type, values)):
        return values
    return [_to_wire(item) for item in values]


def _list_to_wire(values: Sequence[Any]) -> Any:
    """A JSON array — or, for two or more of one registered class, a column block.

    The block ``{"__dc__": name, "__n__": rows, "__cols__": [column, ...]}``
    names the class and the row count once and holds one entry per field
    (:func:`_column_to_wire`): a column of nested dataclasses is itself a
    block, a constant column is its one value, a float column is packed
    doubles, any other column an array.  Two or more ``dict``s travel the
    same way, ``{"__maps__": [[keys of each], values of all]}``, so what
    their values have in common (every ``RangeQuery.ranges`` holds
    ``Interval``s) is again one block.
    """
    kinds = set(map(type, values))
    if kinds <= _PLAIN_TYPES:
        return list(values)
    if len(kinds) == 1 and len(values) > 1:
        (cls,) = kinds
        if cls is dict:
            flat = [item for mapping in values for item in mapping.values()]
            return {
                _TAG_MAPPINGS: [
                    [_wire_keys(mapping) for mapping in values],
                    _list_to_wire(flat),
                ]
            }
        if cls is Aggregation:
            return {_TAG_ENUM: [member.value for member in values]}
        names = _WIRE_FIELDS.get(cls)
        if names is not None:
            return {
                _TAG_DATACLASS: cls.__name__,
                _TAG_ROWS: len(values),
                _TAG_COLUMNS: [
                    _column_to_wire([getattr(item, name) for item in values])
                    for name in names
                ],
            }
    return [_to_wire(item) for item in values]


def _column_to_wire(column: list) -> Any:
    """One field of a column block, as few bytes as it can take bit-exactly.

    * every value the same plain value → ``{"__k__": value}``, sent once;
    * Python floats otherwise → ``{"__d__": base64}``, the little-endian
      IEEE-754 doubles, bit-exact by construction rather than by ``repr``;
    * anything else → :func:`_list_to_wire` (an array, a nested block).

    "The same" means one exact type and, for floats, one bit pattern —
    never ``==``: ``0.0 == -0.0``, ``1 == 1.0 == True`` and
    ``NaN != NaN``, while the answers digest packs doubles, so a released
    ``-0.0`` must come back ``-0.0``.  A NaN column is packed, so its
    payload bits survive too.
    """
    kinds = set(map(type, column))
    if len(kinds) == 1:
        (kind,) = kinds
        first = column[0]
        if kind is float:
            packed = struct.pack(f"<{len(column)}d", *column)
            if first == first and packed == packed[:8] * len(column):
                return {_TAG_CONSTANT: first}
            return {_TAG_DOUBLES: base64.b64encode(packed).decode("ascii")}
        if kind in _PLAIN_TYPES:
            return {_TAG_CONSTANT: first} if column.count(first) == len(column) else column
    return _list_to_wire(column)


def _from_wire(value: Any, rows: list[int]) -> Any:
    """Inverse of :func:`_to_wire`.

    ``rows`` is the one-element budget of block rows the frame may still
    build (see :func:`_row_count`), shared by every block of the frame.
    """
    kind = type(value)
    if kind is list:
        if _PLAIN_TYPES.issuperset(map(type, value)):
            return value
        return [_from_wire(item, rows) for item in value]
    if kind is not dict:
        return value
    if _TAG_DATACLASS in value:
        return _dataclasses_from_wire(value, rows)
    if _TAG_MAPPINGS in value:
        return _mappings_from_wire(value[_TAG_MAPPINGS], rows)
    if _TAG_TUPLE in value:
        return tuple(_list_from_wire(value[_TAG_TUPLE], rows))
    if _TAG_ENUM in value:
        member = value[_TAG_ENUM]
        if type(member) is list:
            return [Aggregation(item) for item in member]
        return Aggregation(member)
    if _TAG_NDARRAY in value:
        dtype, shape, data = value[_TAG_NDARRAY]
        array = np.frombuffer(base64.b64decode(data), dtype=np.dtype(dtype))
        return array.reshape(tuple(shape)).copy()
    if not _RESERVED_KEYS.isdisjoint(value):
        raise TransportError("fields or columns without a wire type")
    return dict(zip(value, _from_wire(list(value.values()), rows)))


def _list_from_wire(value: Any, rows: list[int]) -> list:
    """Decode a position that must hold a list: a JSON array or a column block."""
    decoded = _from_wire(value, rows)
    if type(decoded) is not list:
        raise TransportError(
            f"expected an array or a column block, got {type(value).__name__}"
        )
    return decoded


def _row_count(value: Any, rows: list[int]) -> int:
    """A block's ``__n__``, validated and charged against the frame's budget.

    ``__n__`` is the only length the decoder trusts, and a constant column
    costs no bytes per row — so without a bound a few bytes could ask for
    millions of objects.  Every frame starts with a budget of as many rows
    as it has bytes; each block spends its ``__n__`` from it, nested blocks
    included, so one frame can never build more objects than it is long.
    """
    if type(value) is not int or value < 0:
        raise TransportError(f"block row count {value!r} is not a non-negative integer")
    if value > rows[0]:
        raise TransportError(
            f"block of {value} rows exceeds what the frame can carry ({rows[0]} left)"
        )
    rows[0] -= value
    return value


def _column_from_wire(value: Any, count: int, rows: list[int]) -> list:
    """Inverse of :func:`_column_to_wire`: exactly ``count`` values, or an error."""
    if type(value) is dict and len(value) == 1:
        if _TAG_CONSTANT in value:
            constant = value[_TAG_CONSTANT]
            if type(constant) not in _PLAIN_TYPES:
                raise TransportError(
                    f"a constant column holds one plain value, not "
                    f"{type(constant).__name__}"
                )
            return [constant] * count
        if _TAG_DOUBLES in value:
            return _unpack_doubles(value[_TAG_DOUBLES], count)
    column = _list_from_wire(value, rows)
    if len(column) != count:
        raise TransportError(f"column of {len(column)} values in a block of {count} rows")
    return column


def _unpack_doubles(data: Any, count: int) -> list[float]:
    """``count`` little-endian doubles out of a base64 string of exactly their size."""
    if type(data) is not str or len(data) != 4 * -(-8 * count // 3):
        raise TransportError(f"packed column is not the base64 of {count} doubles")
    try:
        raw = base64.b64decode(data, validate=True)
    except ValueError as error:
        raise TransportError(f"packed column is not base64: {error}") from error
    if len(raw) != 8 * count:
        raise TransportError(f"packed column holds {len(raw)} bytes, not {8 * count}")
    return list(struct.unpack(f"<{count}d", raw))


def _mappings_from_wire(value: Any, rows: list[int]) -> list[dict[str, Any]]:
    """The ``dict``s of a ``__maps__`` column: each takes its keys' share of the values."""
    key_lists, flat = value
    values = _list_from_wire(flat, rows)
    if type(key_lists) is not list or not {list}.issuperset(map(type, key_lists)):
        raise TransportError("mappings column without one key array per mapping")
    keys = [key for key_list in key_lists for key in key_list]
    if len(keys) != len(values) or not {str}.issuperset(map(type, keys)):
        raise TransportError(
            f"mappings column has {len(keys)} string keys for {len(values)} values"
        )
    taken = iter(values)
    return [dict(zip(key_list, taken)) for key_list in key_lists]


def _dataclasses_from_wire(value: dict[str, Any], rows: list[int]) -> Any:
    """One object out of a positional row, or a list of them out of a column block.

    Either way every object is rebuilt through its constructor, so the
    class's own ``__post_init__`` checks run on everything that arrives.
    A block's columns must each hold exactly its ``__n__`` values.
    """
    name = value[_TAG_DATACLASS]
    cls = _WIRE_DATACLASSES.get(name) if isinstance(name, str) else None
    if cls is None:
        raise TransportError(f"unknown wire type {name!r}")
    names = _WIRE_FIELDS[cls]
    is_block = _TAG_COLUMNS in value
    items = value[_TAG_COLUMNS] if is_block else value.get(_TAG_FIELDS)
    if type(items) is not list or len(items) != len(names):
        raise TransportError(f"{name} needs an array of {len(names)} fields or columns")
    if not is_block:
        return cls(*_from_wire(items, rows))
    count = _row_count(value.get(_TAG_ROWS), rows)
    columns = [_column_from_wire(column, count, rows) for column in items]
    return [cls(*row) for row in zip(*columns)]


def serialize(value: Any) -> bytes:
    """Encode a protocol value (message, batch, envelope) to wire bytes."""
    return json.dumps(_to_wire(value), separators=(",", ":")).encode("utf-8")


def deserialize(data: bytes) -> Any:
    """Decode wire bytes back to the original protocol value.

    Raises :class:`~repro.errors.TransportError` on malformed payloads —
    and on *any* failure, because the bytes come from outside and decoding
    runs constructors on them: bad JSON, a block of the wrong shape, a
    value a ``__post_init__`` rejects, or whatever else a hostile peer
    finds all mean the same thing to the caller.  The blocks of one frame
    build at most as many objects as the frame has bytes
    (:func:`_row_count`).
    """
    try:
        return _from_wire(json.loads(data.decode("utf-8")), [len(data)])
    except TransportError:
        raise
    except Exception as error:  # noqa: BLE001 - the wire is a trust boundary
        raise TransportError(
            f"malformed wire payload: {type(error).__name__}: {error}"
        ) from error


def _readable_seq(data: bytes) -> int | None:
    """The integer ``seq`` of a request that did not :func:`deserialize`, if any.

    Lets the server address a typed error reply instead of hanging up.
    """
    try:
        envelope = json.loads(data)
    except (ValueError, RecursionError):
        return None
    seq = envelope.get("seq") if isinstance(envelope, dict) else None
    return seq if isinstance(seq, int) and not isinstance(seq, bool) else None


# -- framing --------------------------------------------------------------------

WIRE_MAGIC = b"RAQP"
"""Frame preamble; a stream that does not start with it is garbage."""

DEFAULT_MAX_FRAME_BYTES = 8 * 2**20
"""Default per-frame ceiling (8 MiB); protocol messages are tiny."""

_FRAME_HEADER = struct.Struct("!4sI")


def encode_frame(payload: bytes, max_frame_bytes: int = DEFAULT_MAX_FRAME_BYTES) -> bytes:
    """Wrap a payload in the length-prefixed frame format."""
    if len(payload) > max_frame_bytes:
        raise TransportError(
            f"frame of {len(payload)} bytes exceeds the "
            f"{max_frame_bytes}-byte ceiling"
        )
    return _FRAME_HEADER.pack(WIRE_MAGIC, len(payload)) + payload


class FrameDecoder:
    """Incremental decoder for length-prefixed frames.

    Feed arbitrary byte chunks (including partial frames — common on TCP);
    complete frames come back in order, partial input stays buffered for
    the next :meth:`feed`.  A bad magic or an oversized length raises a
    typed :class:`~repro.errors.TransportError` immediately — a framer
    must never hang on garbage, and never allocate unbounded buffers for a
    hostile length prefix.  After an error the decoder is poisoned: the
    stream has lost sync and must be torn down.
    """

    def __init__(self, max_frame_bytes: int = DEFAULT_MAX_FRAME_BYTES) -> None:
        self.max_frame_bytes = max_frame_bytes
        self._buffer = bytearray()
        self._corrupt: TransportError | None = None

    @property
    def pending_bytes(self) -> int:
        """Bytes buffered awaiting the rest of a frame."""
        return len(self._buffer)

    def feed(self, data: bytes) -> list[bytes]:
        """Consume a chunk and return every frame it completed (maybe none)."""
        if self._corrupt is not None:
            raise self._corrupt
        buffer = self._buffer
        buffer.extend(data)
        frames: list[bytes] = []
        offset = 0
        while len(buffer) - offset >= _FRAME_HEADER.size:
            magic, length = _FRAME_HEADER.unpack_from(buffer, offset)
            if magic != WIRE_MAGIC:
                self._corrupt = TransportError(
                    f"bad frame magic {bytes(magic)!r}: stream is corrupt or "
                    f"not a transport stream"
                )
                raise self._corrupt
            if length > self.max_frame_bytes:
                self._corrupt = TransportError(
                    f"frame of {length} bytes exceeds the "
                    f"{self.max_frame_bytes}-byte ceiling"
                )
                raise self._corrupt
            start = offset + _FRAME_HEADER.size
            if len(buffer) < start + length:
                break
            frames.append(bytes(buffer[start : start + length]))
            offset = start + length
        # Frames were consumed by offset; the front goes in one move.
        del buffer[:offset]
        return frames


# -- transports -----------------------------------------------------------------


def _execute_op(provider: DataProvider, op: str, payload: dict[str, Any]) -> Any:
    """Run one protocol op against a provider (the server side of the wire).

    Replies carry released messages and reuse flags only: the answer op
    never passes ``diagnostics_out``, so a provider's diagnostics are never
    even built into a reply.
    """
    if op == "summary":
        reuse: list[bool] = []
        messages = provider.prepare_summary_batch(
            list(payload["requests"]), payload["epsilon"], reuse_out=reuse
        )
        return {"messages": messages, "reuse": reuse}
    if op == "answer":
        reuse = []
        estimates = provider.answer_batch(
            list(payload["allocations"]),
            payload["budget"],
            use_smc=payload["use_smc"],
            reuse_out=reuse,
        )
        return {"answers": estimates, "reuse": reuse}
    if op == "forget":
        provider.forget_batch(list(payload["query_ids"]))
        return True
    if op == "ping":
        return "pong"
    raise TransportError(f"unknown transport op {op!r}")


_WIRE_OPS = ("summary", "answer", "forget", "ping")
"""Ops any peer may request.  Endpoints add their own through
``local_ops`` (the process carrier's worker accepts ``ingest``)."""


def serve_request(
    providers: Sequence[DataProvider],
    envelope: Any,
    *,
    tracer: Any | None = None,
    kind: str,
    local_ops: Mapping[str, Callable[[DataProvider, dict], Any]] | None = None,
) -> dict[str, Any]:
    """Serve one decoded request envelope: the server boundary of every carrier.

    The envelope comes from outside, so it is validated before anything is
    indexed with it.  One that cannot even be answered — not a mapping, or
    without an integer ``seq`` to address the reply to — raises
    :class:`~repro.errors.TransportError` and the carrier drops the
    connection.  Anything else becomes a reply: an unknown ``op``, a
    ``provider`` outside ``[0, len(providers))`` or a payload that is not a
    mapping is answered with a typed ``TransportError`` reply, and an
    exception raised by the provider travels home the same way.

    The server span, when the request carries a trace context, is tagged
    ``provider`` / ``side`` / ``transport`` only: on the process carrier
    it rides the reply, and nothing about the data may ride with it.
    """
    if not isinstance(envelope, dict):
        raise TransportError(
            f"request envelope must be a mapping, got {type(envelope).__name__}"
        )
    seq = envelope.get("seq")
    if not isinstance(seq, int) or isinstance(seq, bool):
        raise TransportError(f"request envelope carries no integer seq: {seq!r}")
    try:
        op = envelope.get("op")
        handler = local_ops.get(op) if local_ops and isinstance(op, str) else None
        if handler is None and op not in _WIRE_OPS:
            raise TransportError(f"unknown transport op {op!r}")
        index = envelope.get("provider")
        if (
            not isinstance(index, int)
            or isinstance(index, bool)
            or not 0 <= index < len(providers)
        ):
            raise TransportError(
                f"provider index {index!r} is outside [0, {len(providers)})"
            )
        payload = envelope.get("payload")
        if not isinstance(payload, dict):
            raise TransportError(
                f"{op} payload must be a mapping, got {type(payload).__name__}"
            )
        provider = providers[index]

        def execute() -> Any:
            if handler is not None:
                return handler(provider, payload)
            return _execute_op(provider, op, payload)

        trace_parent = payload.pop("trace", None)
        if trace_parent is not None and tracer is not None:
            with tracer.span(
                f"provider.{op}",
                parent=tuple(trace_parent),
                provider=provider.provider_id,
                side="server",
                transport=kind,
            ):
                result = execute()
        else:
            result = execute()
        return {"seq": seq, "ok": result}
    except Exception as error:  # noqa: BLE001 - the wire carries it home
        return {"seq": seq, "err": [type(error).__name__, str(error)]}


def _phase_result(op: str, reply: dict[str, Any]) -> tuple:
    """What a phase call returns, out of its reply: ``(messages, reuse flags)``
    for a summary, ``(estimates, reuse flags, None)`` for an answer — a
    wire carries no diagnostics."""
    reuse = [bool(flag) for flag in reply["reuse"]]
    if op == "summary":
        return list(reply["messages"]), reuse
    return list(reply["answers"]), reuse, None


class Transport:
    """Carries the per-provider protocol phases of one federation.

    Subclasses implement :meth:`summary_batch`, :meth:`answer_batch`, and
    :meth:`forget_batch`; the aggregator calls them instead of touching the
    providers directly, so swapping the transport never changes protocol
    logic.  ``stats`` accounts the transport's real framed traffic (all
    zeros for the in-process transport, which has no wire); an installed
    ``fault_injector`` supplies scripted transport faults for chaos runs.

    The remaining hooks (:meth:`post_summary` / :meth:`post_answer`,
    :meth:`mirror_ingest`, :meth:`drop_sessions`, :meth:`inject`,
    :meth:`layout_changed`) have defaults that are right for every carrier
    whose endpoints serve the aggregator's own provider objects; a carrier
    that hosts *copies* of the providers elsewhere overrides them.
    """

    kind = "abstract"

    def __init__(
        self,
        providers: Sequence[DataProvider],
        *,
        max_frame_bytes: int = DEFAULT_MAX_FRAME_BYTES,
        tracer: Any | None = None,
    ) -> None:
        self.providers = list(providers)
        self.max_frame_bytes = max_frame_bytes
        self.stats = NetworkStats()
        self.fault_injector: Any | None = None
        self.tracer = tracer
        self.closed = False
        self._stats_lock = threading.Lock()
        # What only a hosting carrier fills: its own counters (respawns, delta
        # rows shipped through shared memory) and the kernel work its
        # endpoints reported back.
        self.carrier_stats: dict[str, int] = {}
        self.kernel_telemetry = KernelTelemetry()

    # Phase calls ---------------------------------------------------------------

    def summary_batch(
        self,
        index: int,
        requests: Sequence[QueryRequest],
        epsilon_allocation: float,
        *,
        attempt: int = 1,
    ) -> tuple[list[SummaryMessage], list[bool]]:
        """Run the summary phase on provider ``index``; returns (messages, reuse)."""
        raise NotImplementedError

    def answer_batch(
        self,
        index: int,
        allocations: Sequence[AllocationMessage],
        budget: QueryBudget,
        use_smc: bool,
        *,
        attempt: int = 1,
    ) -> tuple[list[EstimateMessage], list[bool], list[ProviderDiagnostics] | None]:
        """Run the answer phase on provider ``index``.

        Returns ``(estimates, reuse flags, diagnostics)``; the diagnostics
        are ``None`` on every carrier but the in-process one, whose
        provider shares the caller's process.
        """
        raise NotImplementedError

    def forget_batch(self, index: int, query_ids: Sequence[int]) -> None:
        """Release provider ``index``'s sessions for the given query ids."""
        raise NotImplementedError

    def post_summary(self, index, requests, epsilon_allocation, *, attempt=1):
        """Start :meth:`summary_batch` on provider ``index``; call the result to wait.

        The aggregator posts a phase to every provider before it awaits the
        first reply.  Where the endpoint shares this process (or a blocking
        connection) the whole call runs right here, so the fan-out stays
        strictly sequential; only a carrier with endpoints in other
        processes returns before the provider has run.
        """
        result = self.summary_batch(index, requests, epsilon_allocation, attempt=attempt)
        return lambda: result

    def post_answer(self, index, allocations, budget, use_smc, *, attempt=1):
        """Start :meth:`answer_batch` on provider ``index`` (see :meth:`post_summary`)."""
        result = self.answer_batch(index, allocations, budget, use_smc, attempt=attempt)
        return lambda: result

    # Hosting hooks -------------------------------------------------------------

    def mirror_ingest(self, index: int, rows: Table) -> None:
        """Show rows about to be appended to provider ``index`` to its endpoint.

        A no-op here: the endpoint *is* the object the aggregator appends to.
        """

    def drop_sessions(self, index: int, query_ids: Sequence[int]) -> None:
        """Last resort when :meth:`forget_batch` failed: the sessions must still go.

        The providers live in this process, so release them directly (the
        forget is idempotent either way).
        """
        self.providers[index].forget_batch(query_ids)

    def inject(self, index: int, fault: Any) -> bool:
        """Offer the carrier a scripted provider fault (crash, hang, killed pipe).

        Returns whether the upcoming call should go ahead and fail on its
        own.  In-process providers cannot genuinely crash or hang, so the
        default declines and the aggregator fails the attempt instead.
        """
        return False

    def layout_changed(self) -> None:
        """A provider re-clustered (compaction, ``rebuild_layout``).

        Nothing to do where the endpoints serve the live provider objects.
        """

    # Lifecycle -----------------------------------------------------------------

    def close(self) -> None:
        """Release transport resources (idempotent).

        Closing is final for this instance; the aggregator checks ``closed``
        and builds a fresh transport when a torn-down one would otherwise be
        reused (a failed batch closes the aggregator to reclaim resources,
        and the dead wire must not wedge every later batch).
        """
        self.closed = True

    def __enter__(self) -> "Transport":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def snapshot_stats(self) -> NetworkStats:
        """A copy of the real-wire counters accumulated so far."""
        with self._stats_lock:
            return NetworkStats(**dataclasses.asdict(self.stats))

    # Shared helpers ------------------------------------------------------------

    def _count_frame(self, num_bytes: int) -> None:
        with self._stats_lock:
            self.stats.messages += 1
            self.stats.bytes_sent += num_bytes

    def _take_fault(self, phase: str | None, index: int, attempt: int):
        """Consume a scripted transport fault for this call, if one matches.

        ``delay_frame`` is applied here (the call stalls, then proceeds);
        a consumed ``duplicate_frame`` is signalled to the caller; the
        destructive kinds (``drop_frame``, ``disconnect``) are returned
        for the subclass to act on *before* the provider runs.
        """
        if phase is None or self.fault_injector is None:
            return None, False
        fault = self.fault_injector.take_transport_fault(phase, index, attempt)
        if fault is None:
            return None, False
        if fault.kind == "delay_frame":
            time.sleep(fault.delay_seconds)
            return None, False
        if fault.kind == "duplicate_frame":
            return None, True
        return fault, False


class InProcessTransport(Transport):
    """Direct method calls — the provider boundary stays a function call."""

    kind = "inprocess"

    def summary_batch(self, index, requests, epsilon_allocation, *, attempt=1):
        reuse: list[bool] = []
        messages = self.providers[index].prepare_summary_batch(
            requests, epsilon_allocation, reuse_out=reuse
        )
        return messages, reuse

    def answer_batch(self, index, allocations, budget, use_smc, *, attempt=1):
        # The one carrier that asks for diagnostics: nothing crosses a wire.
        reuse: list[bool] = []
        diagnostics: list[ProviderDiagnostics] = []
        estimates = self.providers[index].answer_batch(
            allocations,
            budget,
            use_smc=use_smc,
            reuse_out=reuse,
            diagnostics_out=diagnostics,
        )
        return estimates, reuse, diagnostics

    def forget_batch(self, index, query_ids):
        self.providers[index].forget_batch(query_ids)


class _SerializingTransport(Transport):
    """Shared machinery for transports that put every message on a wire."""

    def __init__(self, providers, *, max_frame_bytes=DEFAULT_MAX_FRAME_BYTES, tracer=None):
        super().__init__(providers, max_frame_bytes=max_frame_bytes, tracer=tracer)
        self._seq = 0
        self._seq_lock = threading.Lock()

    def _next_seq(self) -> int:
        with self._seq_lock:
            self._seq += 1
            return self._seq

    def _serve_request(self, envelope: Any) -> dict[str, Any]:
        """Execute one decoded request envelope; exceptions become replies."""
        return serve_request(
            self.providers, envelope, tracer=self.tracer, kind=self.kind
        )

    def _serve_frame(self, request: bytes) -> list[bytes]:
        """The server side of one exchange: a request frame's payload in, the
        reply frame out — twice when the request carries the ``dup`` flag.

        A request that does not decode but still shows an integer ``seq`` is
        answered with a typed error; one that cannot be addressed raises
        :class:`~repro.errors.TransportError` and the carrier hangs up.
        """
        copies = 1
        try:
            envelope = deserialize(request)
        except TransportError as error:
            seq = _readable_seq(request)
            if seq is None:
                raise
            reply = {"seq": seq, "err": [type(error).__name__, str(error)]}
        else:
            reply = self._serve_request(envelope)
            if envelope.get("dup"):
                copies = 2
        return [encode_frame(serialize(reply), self.max_frame_bytes)] * copies

    def _unwrap(self, envelope: dict[str, Any], index: int) -> Any:
        if "err" in envelope:
            name, message = envelope["err"]
            cls = getattr(_errors, name, None)
            if isinstance(cls, type) and issubclass(cls, ReproError):
                raise cls(message)
            raise TransportError(
                f"provider {self.providers[index].provider_id!r} failed: "
                f"{name}: {message}"
            )
        return envelope["ok"]

    def _call(
        self,
        index: int,
        op: str,
        payload: dict[str, Any],
        *,
        phase: str | None = None,
        attempt: int = 1,
    ) -> Any:
        # When a sampled span is active on this thread, wrap the round trip
        # in a client-side rpc span and ship its context in the payload so
        # the server side parents its provider span under it.  With tracing
        # off (or the trace unsampled) the payload — and therefore the wire
        # bytes — is exactly what it was before observability existed.
        active = self.tracer.context() if self.tracer is not None else None
        if active is not None:
            span = self.tracer.span(
                f"rpc.{op}",
                provider=self.providers[index].provider_id,
                attempt=attempt,
                transport=self.kind,
            )
        else:
            span = nullcontext()
        with span as context:
            if context is not None:
                payload = {**payload, "trace": context}
            fault, duplicate = self._take_fault(phase, index, attempt)
            envelope = self._roundtrip(
                index, op, payload, fault=fault, duplicate=duplicate
            )
            return self._unwrap(envelope, index)

    def _roundtrip(self, index, op, payload, *, fault, duplicate):
        raise NotImplementedError

    def _disconnect(self, index: int) -> None:
        """Tear down whatever connects this side to provider ``index``."""

    def _fail(self, fault, index: int, op: str) -> None:
        """Act out a destructive wire fault: the request never reaches the provider."""
        provider_id = self.providers[index].provider_id
        if fault.kind == "drop_frame":
            with self._stats_lock:
                self.stats.messages_dropped += 1
            raise TransportError(
                f"request frame lost on its way to provider {provider_id!r} "
                f"during {op}"
            )
        self._disconnect(index)
        raise TransportError(
            f"connection to provider {provider_id!r} dropped during {op}"
        )

    def _frame_request(self, index, op, payload, *, fault, duplicate) -> tuple[int, bytes]:
        """Frame (and count) one request envelope; a destructive fault strikes here."""
        seq = self._next_seq()
        request = {"seq": seq, "op": op, "provider": index, "payload": payload}
        if duplicate:
            request["dup"] = True  # asks the server to send its reply twice
        frame = encode_frame(serialize(request), self.max_frame_bytes)
        self._count_frame(len(frame))
        if fault is not None:
            self._fail(fault, index, op)
        return seq, frame

    # Phase calls ---------------------------------------------------------------

    def summary_batch(self, index, requests, epsilon_allocation, *, attempt=1):
        reply = self._call(
            index,
            "summary",
            {"requests": list(requests), "epsilon": float(epsilon_allocation)},
            phase="summary",
            attempt=attempt,
        )
        return _phase_result("summary", reply)

    def answer_batch(self, index, allocations, budget, use_smc, *, attempt=1):
        reply = self._call(
            index,
            "answer",
            {
                "allocations": list(allocations),
                "budget": budget,
                "use_smc": bool(use_smc),
            },
            phase="answer",
            attempt=attempt,
        )
        return _phase_result("answer", reply)

    def forget_batch(self, index, query_ids):
        self._call(index, "forget", {"query_ids": [int(qid) for qid in query_ids]})


class LoopbackTransport(_SerializingTransport):
    """Full wire round trip — serialize, frame, deframe, deserialize — with
    no sockets.  Proves codec losslessness at near-in-process speed."""

    kind = "loopback"

    def __init__(self, providers, *, max_frame_bytes=DEFAULT_MAX_FRAME_BYTES, tracer=None):
        super().__init__(providers, max_frame_bytes=max_frame_bytes, tracer=tracer)
        self._server_decoders = [FrameDecoder(max_frame_bytes) for _ in self.providers]
        self._client_decoders = [FrameDecoder(max_frame_bytes) for _ in self.providers]

    def _roundtrip(self, index, op, payload, *, fault, duplicate):
        provider_id = self.providers[index].provider_id
        seq, frame = self._frame_request(
            index, op, payload, fault=fault, duplicate=duplicate
        )
        reply_frames: list[bytes] = []
        for request_frame in self._server_decoders[index].feed(frame):
            reply_frames.extend(self._serve_frame(request_frame))
        matched: dict[str, Any] | None = None
        for reply_frame in reply_frames:
            self._count_frame(len(reply_frame))
            for complete in self._client_decoders[index].feed(reply_frame):
                envelope = deserialize(complete)
                if matched is None and envelope.get("seq") == seq:
                    matched = envelope
                else:
                    with self._stats_lock:
                        self.stats.frames_duplicated += 1
        if matched is None:
            raise TransportError(f"no reply from provider {provider_id!r} for {op}")
        return matched


class _SocketConnection:
    """One blocking client connection plus its receive-side decoder."""

    def __init__(self, sock: socket_module.socket, max_frame_bytes: int) -> None:
        self.sock = sock
        self.decoder = FrameDecoder(max_frame_bytes)
        self.frames: deque[bytes] = deque()
        self.lock = threading.Lock()

    def close(self) -> None:
        try:
            self.sock.close()
        except OSError:
            pass


_CLOSE_TIMEOUT = 5.0
"""Seconds :meth:`SocketTransport.close` waits, in all, for its server
threads; a handler still inside a provider call after that is abandoned
(the threads are daemons)."""


def _hang_up(sock: socket_module.socket) -> None:
    """Wake whichever thread blocks on ``sock`` (accept or recv) with an error/EOF."""
    try:
        sock.shutdown(socket_module.SHUT_RDWR)
    except OSError:
        pass  # never connected, or the peer is already gone


class SocketTransport(_SerializingTransport):
    """Blocking TCP on localhost with length-prefixed framing.

    A single listening socket hosts every provider: an accept thread hands
    each connection to its own handler thread, which serves it request by
    request (receive, decode, run the provider, encode, send) — one hop
    from the caller to the provider and one back.  The aggregator side
    keeps one blocking connection per provider (opened lazily, reopened
    after a disconnect).  Replies are matched to requests by sequence
    number; a reply frame whose sequence was already consumed is discarded
    and counted in ``stats.frames_duplicated``.  Receive timeouts come from
    :attr:`~repro.config.ResilienceConfig.provider_timeout_seconds` and
    raise :class:`~repro.errors.TransportTimeoutError`.
    """

    kind = "socket"

    def __init__(
        self,
        providers,
        *,
        resilience=None,
        max_frame_bytes=DEFAULT_MAX_FRAME_BYTES,
        connect_timeout_seconds: float = 5.0,
        tracer=None,
    ):
        super().__init__(providers, max_frame_bytes=max_frame_bytes, tracer=tracer)
        self._call_timeout = (
            resilience.provider_timeout_seconds if resilience is not None else 30.0
        )
        self._connect_timeout = connect_timeout_seconds
        self._connections: dict[int, _SocketConnection] = {}
        # Guards the client connections, the handler list and ``_closed``.
        self._connections_lock = threading.Lock()
        self._closed = False
        self._handlers: list[tuple[threading.Thread, socket_module.socket]] = []
        try:
            self._listener = socket_module.create_server(("127.0.0.1", 0))
        except OSError as error:
            raise TransportError(
                f"transport server failed to start: {error}"
            ) from error
        self.port: int = self._listener.getsockname()[1]
        self._accept_thread = threading.Thread(
            target=self._accept_connections, name="repro-transport-accept", daemon=True
        )
        self._accept_thread.start()

    # Server side ---------------------------------------------------------------

    def _accept_connections(self) -> None:
        while True:
            try:
                sock, _ = self._listener.accept()
            except OSError:
                return  # close() hung the listener up
            sock.setsockopt(socket_module.IPPROTO_TCP, socket_module.TCP_NODELAY, 1)
            handler = threading.Thread(
                target=self._handle_connection,
                args=(sock,),
                name="repro-transport-handler",
                daemon=True,
            )
            with self._connections_lock:
                if self._closed:
                    sock.close()
                    return
                self._handlers = [
                    entry for entry in self._handlers if entry[0].is_alive()
                ]
                self._handlers.append((handler, sock))
                handler.start()

    def _handle_connection(self, sock: socket_module.socket) -> None:
        decoder = FrameDecoder(self.max_frame_bytes)
        try:
            while True:
                data = sock.recv(65536)
                if not data:
                    break
                # Garbage on the wire (the stream lost sync), a frame that
                # does not decode, or an envelope with no seq to address a
                # reply to: a TransportError here reaches the handler below
                # and the only safe response is to drop the connection.
                for frame in decoder.feed(data):
                    for reply_frame in self._serve_frame(frame):
                        # Count before the write: the moment the bytes hit
                        # the wire the client may wake up and snapshot the
                        # stats, and the counters must already include them.
                        self._count_frame(len(reply_frame))
                        sock.sendall(reply_frame)
        except (OSError, TransportError):
            pass
        finally:
            sock.close()

    # Client side ---------------------------------------------------------------

    def _connection(self, index: int) -> _SocketConnection:
        with self._connections_lock:
            connection = self._connections.get(index)
            if connection is not None:
                return connection
            if self._closed or self.port is None:
                raise TransportError("transport is closed")
            try:
                sock = socket_module.create_connection(
                    ("127.0.0.1", self.port), timeout=self._connect_timeout
                )
            except OSError as error:
                raise TransportError(
                    f"cannot connect to provider host: {error}"
                ) from error
            sock.settimeout(self._call_timeout)
            connection = _SocketConnection(sock, self.max_frame_bytes)
            self._connections[index] = connection
            return connection

    def _disconnect(self, index: int) -> None:
        with self._connections_lock:
            connection = self._connections.pop(index, None)
        if connection is not None:
            connection.close()

    def _roundtrip(self, index, op, payload, *, fault, duplicate):
        provider_id = self.providers[index].provider_id
        seq, frame = self._frame_request(
            index, op, payload, fault=fault, duplicate=duplicate
        )
        connection = self._connection(index)
        with connection.lock:
            try:
                connection.sock.sendall(frame)
                return self._read_reply(connection, seq, expect_duplicate=duplicate)
            except socket_module.timeout as error:
                self._disconnect(index)
                raise TransportTimeoutError(
                    f"provider {provider_id!r} did not answer {op} within "
                    f"{self._call_timeout}s"
                ) from error
            except OSError as error:
                self._disconnect(index)
                raise TransportError(
                    f"connection to provider {provider_id!r} failed during {op}: "
                    f"{error}"
                ) from error

    def _read_reply(
        self, connection: _SocketConnection, seq: int, *, expect_duplicate: bool
    ) -> dict[str, Any]:
        matched: dict[str, Any] | None = None
        duplicate_seen = False
        while True:
            while connection.frames:
                envelope = deserialize(connection.frames.popleft())
                if matched is None and envelope.get("seq") == seq:
                    matched = envelope
                else:
                    duplicate_seen = duplicate_seen or envelope.get("seq") == seq
                    with self._stats_lock:
                        self.stats.frames_duplicated += 1
            if matched is not None and (duplicate_seen or not expect_duplicate):
                return matched
            data = connection.sock.recv(65536)
            if not data:
                raise TransportError("provider host closed the connection")
            connection.frames.extend(connection.decoder.feed(data))

    # Lifecycle -----------------------------------------------------------------

    def close(self) -> None:
        """Hang up every socket and join every server thread, inside
        :data:`_CLOSE_TIMEOUT` seconds in all."""
        with self._connections_lock:
            if self._closed:
                return
            self._closed = True
            self.closed = True
            connections = list(self._connections.values())
            self._connections.clear()
            handlers = self._handlers
        for connection in connections:
            connection.close()
        _hang_up(self._listener)
        self._listener.close()
        # A handler mid-request finishes it and fails on the send; an idle
        # one reads end-of-stream.  Each closes its own socket on the way out.
        for _, sock in handlers:
            _hang_up(sock)
        deadline = time.monotonic() + _CLOSE_TIMEOUT
        for thread in (self._accept_thread, *(thread for thread, _ in handlers)):
            thread.join(max(0.0, deadline - time.monotonic()))


_WORKER_READY_TIMEOUT = 60.0
"""Seconds a (re)started worker gets to rebuild its provider (and to replay
a summary) before the start counts as failed."""


class ProcessTransport(_SerializingTransport):
    """One persistent worker process per provider, reached over a pipe.

    The workers start on the first call: each provider's table is exported
    once into shared memory and its pending delta rows pre-loaded into a
    shared append buffer (:class:`~repro.federation.procpool.ProviderHost`),
    so rows never cross the pipe — only envelopes do.  Sessions and release
    caches live worker-side; after every reply the parent provider adopts
    the worker's RNG position, so a worker can always be restarted from
    the parent object.

    A worker that dies, hangs past ``provider_timeout_seconds`` or loses
    sync is killed and the call raises :class:`~repro.errors.TransportError`
    / :class:`~repro.errors.TransportTimeoutError`.  The next call to that
    provider respawns it over the *existing* blocks: from the parent's
    current stream position, or — ahead of an answer, whose sessions died
    with the worker — from the checkpoint taken when the batch's summary
    was posted, replaying that summary so sessions and draws are rebuilt
    bit-identically (release caches start cold).

    A provider re-clustering invalidates every worker's snapshot of it:
    :meth:`layout_changed` stops the workers and unlinks every block, and
    the next call starts fresh ones on the new layout.
    """

    kind = "process"

    def __init__(
        self, providers, *, resilience=None, max_frame_bytes=DEFAULT_MAX_FRAME_BYTES, tracer=None
    ):
        super().__init__(providers, max_frame_bytes=max_frame_bytes, tracer=tracer)
        self._call_timeout = (
            resilience.provider_timeout_seconds if resilience is not None else 30.0
        )
        self._hosts: list[ProviderHost] = []
        self._chaos: dict[int, Any] = {}
        # Per provider: the stream position and payload of the last summary
        # posted to it — where a worker respawned mid-batch restarts from.
        self._checkpoints: dict[int, tuple[dict, dict[str, Any]]] = {}
        # ``delta_rows_pickled_bytes`` stays zero by construction; it exists
        # so a regression that puts rows on the pipe is caught by a test
        # rather than by a profiler.
        self.carrier_stats = dict.fromkeys(
            (
                "workers_respawned",
                "delta_rows_shipped",
                "delta_shared_bytes",
                "delta_rows_pickled_bytes",
            ),
            0,
        )

    def shared_block_names(self) -> tuple[str, ...]:
        """Names of every live shared-memory block the carrier owns.

        The leak-regression tests attach by name after a crash to prove
        everything was unlinked.
        """
        return tuple(name for host in self._hosts for name in host.block_names())

    def live_workers(self) -> int:
        """Number of workers currently reachable over their pipes."""
        return sum(host.alive for host in self._hosts)

    # Worker lifecycle ----------------------------------------------------------

    def _start(self) -> None:
        """Export every provider and start its worker (the bootstraps overlap)."""
        try:
            for provider in self.providers:
                host = ProviderHost(provider)
                self._hosts.append(host)
                if provider.delta.watermark:
                    # Pending (uncompacted) rows reach the worker through
                    # the shared buffer, never through the spec.
                    self._append_delta(
                        host, provider.delta.rows_upto(provider.delta.watermark)
                    )
                host.start(provider._rng.bit_generator.state)
            for host in self._hosts:
                host.await_ready(_WORKER_READY_TIMEOUT)
        except BaseException:
            self.layout_changed()
            raise

    def _append_delta(self, host: ProviderHost, rows: Table) -> tuple[int, int]:
        self.carrier_stats["delta_rows_shipped"] += rows.num_rows
        self.carrier_stats["delta_shared_bytes"] += (
            rows.num_rows * host.delta_buffer.row_bytes
        )
        return host.delta_buffer.append(rows)

    def _connect(self, index: int, op: str) -> ProviderHost:
        """Provider ``index``'s host with a live worker behind it."""
        if self.closed:
            raise TransportError("transport is closed")
        if not self._hosts:
            self._start()
        host = self._hosts[index]
        if host.alive:
            return host
        provider = self.providers[index]
        rng_state, summary = provider._rng.bit_generator.state, None
        if op == "answer" and index in self._checkpoints:
            rng_state, summary = self._checkpoints[index]
        try:
            host.start(rng_state)
            host.await_ready(_WORKER_READY_TIMEOUT)
            if summary is not None:
                # Output discarded: the original release was already
                # delivered and accounted before the worker died.
                seq = self._send(host, "summary", dict(summary))
                reply = self._receive(index, host, seq, "summary", _WORKER_READY_TIMEOUT)
                self._unwrap(reply, index)
        except (ReproError, OSError) as error:
            host.kill()
            raise TransportError(
                f"could not respawn the worker of provider "
                f"{provider.provider_id!r}: {error}"
            ) from error
        self.carrier_stats["workers_respawned"] += 1
        return host

    def _disconnect(self, index: int) -> None:
        if self._hosts:
            self._hosts[index].kill()

    # Pipe I/O ------------------------------------------------------------------

    def _send(self, host: ProviderHost, op: str, payload: dict[str, Any], **flags) -> int:
        """Put one request envelope on the worker's pipe; returns its seq."""
        for value in payload.values():
            if isinstance(value, Table):
                self.carrier_stats["delta_rows_pickled_bytes"] += value.memory_bytes()
        seq = self._next_seq()
        data = pickle.dumps(
            {"seq": seq, "op": op, "provider": 0, "payload": payload, **flags},
            pickle.HIGHEST_PROTOCOL,
        )
        try:
            host.conn.send_bytes(data)
        except OSError as error:
            host.kill()
            raise TransportError(
                f"provider worker died ({host.provider.provider_id!r}): {error!r}"
            ) from error
        self._count_frame(len(data))
        return seq

    def _receive(
        self, index: int, host: ProviderHost, seq: int, op: str, timeout: float | None
    ) -> dict[str, Any]:
        """Wait for the reply to ``seq``; what rides on a reply is absorbed here."""
        provider = self.providers[index]
        while True:
            try:
                if not host.conn.poll(timeout):
                    host.kill()
                    raise TransportTimeoutError(
                        f"provider {provider.provider_id!r} did not answer {op} "
                        f"within {timeout}s"
                    )
                data = host.conn.recv_bytes()
            except (EOFError, OSError) as error:
                host.kill()
                raise TransportError(
                    f"provider worker died ({provider.provider_id!r}, during {op}): "
                    f"{error!r}"
                ) from error
            self._count_frame(len(data))
            reply = pickle.loads(data)
            if "rng" in reply:
                # Mirror the worker's stream position onto the parent
                # provider — also for the reply of a call whose waiter never
                # ran (its batch died first): the worker did consume it.
                provider._rng.bit_generator.state = reply["rng"]
            if "telemetry" in reply:
                merge_active_telemetry(reply["telemetry"])
                self.kernel_telemetry.merge_counts(reply["telemetry"])
            if "spans" in reply and self.tracer is not None:
                self.tracer.absorb(reply["spans"])
            if reply["seq"] == seq:
                return reply

    def _post(
        self, index: int, op: str, payload: dict[str, Any], *, fault, duplicate
    ) -> Callable[[], dict[str, Any]]:
        """Send one request; the returned thunk waits for its reply envelope."""
        if fault is not None:
            self._fail(fault, index, op)
        if op == "summary":
            self._checkpoints[index] = (
                self.providers[index]._rng.bit_generator.state,
                dict(payload),
            )
        host = self._connect(index, op)
        chaos = self._chaos.pop(index, None)
        if chaos is not None:
            # A one-way directive just ahead of the real request; the
            # worker never sees the schedule.
            self._send(host, "chaos", {"kind": chaos.kind, "seconds": chaos.hang_seconds})
        flags = {"dup": True} if duplicate else {}
        if telemetry_active():
            flags["telemetry"] = True
        seq = self._send(host, op, payload, **flags)

        def wait() -> dict[str, Any]:
            reply = self._receive(index, host, seq, op, self._call_timeout)
            if duplicate:
                self._receive(index, host, seq, op, self._call_timeout)
                with self._stats_lock:
                    self.stats.frames_duplicated += 1
            return reply

        return wait

    def _roundtrip(self, index, op, payload, *, fault, duplicate):
        return self._post(index, op, payload, fault=fault, duplicate=duplicate)()

    # Phase calls ---------------------------------------------------------------

    def _post_phase(self, op: str, index: int, attempt: int, payload: dict[str, Any]):
        # No client-side rpc span: the calls of one phase overlap, and the
        # worker's provider span hangs under the caller's attempt span.
        context = self.tracer.context() if self.tracer is not None else None
        if context is not None:
            payload["trace"] = context
        fault, duplicate = self._take_fault(op, index, attempt)
        wait = self._post(index, op, payload, fault=fault, duplicate=duplicate)
        return lambda: _phase_result(op, self._unwrap(wait(), index))

    def post_summary(self, index, requests, epsilon_allocation, *, attempt=1):
        payload = {"requests": list(requests), "epsilon": float(epsilon_allocation)}
        return self._post_phase("summary", index, attempt, payload)

    def post_answer(self, index, allocations, budget, use_smc, *, attempt=1):
        payload = {
            "allocations": list(allocations),
            "budget": budget,
            "use_smc": bool(use_smc),
        }
        return self._post_phase("answer", index, attempt, payload)

    def forget_batch(self, index, query_ids):
        # A worker that is down (or was never started) holds no sessions.
        if self._hosts and self._hosts[index].alive:
            super().forget_batch(index, query_ids)

    # Hosting hooks -------------------------------------------------------------

    def mirror_ingest(self, index, rows):
        """Append to the provider's shared delta buffer and tell its worker.

        Only a ``(buffer, start, stop)`` descriptor crosses the pipe.  With
        the worker down (or the carrier not started) the rows just wait in
        the buffer — every (re)start loads it whole.  A worker that fails
        the mirror is killed for the same reason: its successor catches up.
        """
        if not self._hosts:
            return
        host = self._hosts[index]
        start, stop = self._append_delta(host, rows)
        if host.alive:
            descriptor = {"buffer": host.delta_buffer.spec(), "start": start, "stop": stop}
            try:
                self._call(index, "ingest", descriptor)
            except ReproError:
                host.kill()

    def drop_sessions(self, index, query_ids):
        """The sessions live in the worker: they die with it (next call respawns)."""
        self._disconnect(index)

    def inject(self, index, fault):
        if fault.kind == "kill_connection":
            # The pipe dies under the parent, taking the call with it.
            self._disconnect(index)
            return False
        if fault.kind in ("crash_worker", "hang_worker"):
            self._chaos[index] = fault
            return True
        return False

    def layout_changed(self) -> None:
        """Stop the workers and unlink every shared block (idempotent)."""
        hosts, self._hosts = self._hosts, []
        for host in hosts:
            host.close()

    # Lifecycle -----------------------------------------------------------------

    def close(self) -> None:
        self.closed = True
        self.layout_changed()

    def __del__(self) -> None:  # pragma: no cover - best-effort safety net
        try:
            self.close()
        except Exception:
            pass


def create_transport(config, providers, *, resilience=None, tracer=None) -> Transport:
    """Build the transport selected by a :class:`~repro.config.TransportConfig`.

    ``None`` (or kind ``"inprocess"``) keeps today's direct calls.  An
    optional ``tracer`` makes the wire carriers record client-side
    ``rpc.*`` and server-side ``provider.*`` spans per call.
    """
    kind = "inprocess" if config is None else config.kind
    if kind == "inprocess":
        return InProcessTransport(providers, tracer=tracer)
    if kind == "loopback":
        return LoopbackTransport(
            providers, max_frame_bytes=config.max_frame_bytes, tracer=tracer
        )
    if kind == "socket":
        return SocketTransport(
            providers,
            resilience=resilience,
            max_frame_bytes=config.max_frame_bytes,
            connect_timeout_seconds=config.connect_timeout_seconds,
            tracer=tracer,
        )
    if kind == "process":
        return ProcessTransport(
            providers,
            resilience=resilience,
            max_frame_bytes=config.max_frame_bytes,
            tracer=tracer,
        )
    raise TransportError(f"unknown transport kind {kind!r}")
