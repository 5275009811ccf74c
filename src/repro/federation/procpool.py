"""Shared-memory hosting of providers in worker processes.

The part of the ``"process"`` carrier
(:class:`~repro.federation.transport.ProcessTransport`) that is about
*where a provider lives*, not about how messages reach it:

* a hosted provider's **rows never cross the pipe**.  Its table is copied
  once into a :mod:`multiprocessing.shared_memory` block (one
  ``(columns, rows)`` int64 matrix — every
  :class:`~repro.storage.table.Table` column is contiguous int64 by
  construction), and its pending delta rows live in a second, growable
  block of the same shape.  The worker maps both and builds its clustered
  table, metadata, layout and mirror delta store over zero-copy column
  *views*; an append reaches it as a ``(buffer, start, stop)`` descriptor;
* the worker's provider adopts the parent provider's exact RNG stream
  position (and keyed-stream entropy) at start, so it draws precisely what
  the in-process provider would have drawn.

Everything message-shaped — envelope, sequence numbers, timeouts, retries,
respawn with summary replay, fault injection, stats — belongs to the
transport.  The worker loop only receives envelopes, hands them to the
transport's one server-side entry point
(:func:`~repro.federation.transport.serve_request`) and stamps the
provider's RNG position, span records and (when asked) kernel telemetry
onto the reply.

Per-query sessions and the release cache live in the worker while a
provider is hosted; the parent object stays valid for stateless reads
(exact baselines, metadata sizes).  Cache hits still happen and reuse flags
(and therefore per-query charges) are reported, but the parent-side
:meth:`cache.stats` stays empty and the
:class:`~repro.cache.planner.ReusePlanner`'s pre-execution admission bound
cannot see worker-side entries — it stays at the (sound, conservative)
full price.
"""

from __future__ import annotations

import dataclasses
import multiprocessing as mp
import os
import time
from multiprocessing import shared_memory
from typing import Sequence

import numpy as np

from ..errors import TransportError
from ..obs.trace import SpanRecorder
from ..storage.layout import collect_kernel_telemetry
from ..storage.table import Table
from .provider import DataProvider

__all__ = ["ProviderHost"]


@dataclasses.dataclass(frozen=True)
class _RowsSpec:
    """Descriptor of one shared row matrix: what a worker needs to map it."""

    shm_name: str
    capacity: int
    rows: int


class _SharedRows:
    """Parent-side shared-memory row matrix, optionally growing by appends.

    One int64 matrix of shape ``(num_columns, capacity)``.  Growth allocates
    a doubled block and copies the live prefix; the outgrown block is
    unlinked immediately — POSIX keeps existing mappings valid after an
    unlink, so views a worker already holds stay readable, and every later
    descriptor names the new block.
    """

    def __init__(self, column_names: Sequence[str], capacity: int = 1024) -> None:
        self._column_names = tuple(column_names)
        self._capacity = max(1, capacity)
        self._rows = 0
        self._block, self._matrix = self._allocate(self._capacity)

    def _allocate(self, capacity: int) -> tuple[shared_memory.SharedMemory, np.ndarray]:
        num_columns = len(self._column_names)
        block = shared_memory.SharedMemory(
            create=True, size=max(1, num_columns * capacity * 8)
        )
        matrix = np.ndarray((num_columns, capacity), dtype=np.int64, buffer=block.buf)
        return block, matrix

    @property
    def row_bytes(self) -> int:
        """Shared bytes one appended row occupies."""
        return len(self._column_names) * 8

    @property
    def block_name(self) -> str | None:
        """Name of the live block (``None`` once closed)."""
        return None if self._block is None else self._block.name

    def append(self, rows: Table) -> tuple[int, int]:
        """Write a table's rows into the matrix; return their ``[start, stop)``."""
        count = rows.num_rows
        if self._rows + count > self._capacity:
            capacity = self._capacity
            while capacity < self._rows + count:
                capacity *= 2
            block, matrix = self._allocate(capacity)
            matrix[:, : self._rows] = self._matrix[:, : self._rows]
            old = self._block
            self._block, self._matrix, self._capacity = block, matrix, capacity
            old.close()
            old.unlink()
        start = self._rows
        for index, name in enumerate(self._column_names):
            self._matrix[index, start : start + count] = rows.column(name)
        self._rows += count
        return start, self._rows

    def spec(self) -> _RowsSpec:
        """Current descriptor (name, capacity, populated row count)."""
        return _RowsSpec(self._block.name, self._capacity, self._rows)

    def close(self) -> None:
        """Release and unlink the live block (idempotent)."""
        if self._block is None:
            return
        try:
            self._block.close()
            self._block.unlink()
        except FileNotFoundError:  # pragma: no cover - already gone
            pass
        self._block = None


class _RowsView:
    """Worker-side window onto one of the parent's shared row matrices.

    Caches the attached block per name; a grown matrix (new name) is
    attached on first reference while the outgrown block stays mapped —
    the provider's delta chunks hold zero-copy views into it.
    """

    def __init__(self, schema, blocks: list) -> None:
        self._schema = schema
        self._blocks = blocks  # the worker's close-at-exit registry
        self._shm_name: str | None = None
        self._matrix: np.ndarray | None = None

    def table(self, spec: _RowsSpec, start: int, stop: int) -> Table:
        """Zero-copy table over rows ``[start, stop)`` of the matrix."""
        names = self._schema.column_names
        if spec.shm_name != self._shm_name:
            # Attaching re-registers the name with the (shared) resource
            # tracker; registration is a set-add, and only the creating
            # parent unregisters at unlink time, so the books stay balanced.
            block = shared_memory.SharedMemory(name=spec.shm_name)
            self._blocks.append(block)
            self._shm_name = spec.shm_name
            self._matrix = np.ndarray(
                (len(names), spec.capacity), dtype=np.int64, buffer=block.buf
            )
        # Row slices of an int64 matrix row are contiguous int64 views, which
        # Table normalisation keeps as-is — no copy anywhere on this path.
        return Table(
            self._schema,
            {name: self._matrix[index, start:stop] for index, name in enumerate(names)},
        )


@dataclasses.dataclass(frozen=True)
class _ProviderSpec:
    """Everything a worker needs to rebuild one provider, minus the rows."""

    settings: dict  # DataProvider's constructor arguments, minus table and rng
    schema: object
    table: _RowsSpec
    delta: _RowsSpec  # pending (uncompacted) rows
    rng_state: dict
    stream_entropy: tuple[int, ...]


def _worker_main(conn, spec: _ProviderSpec) -> None:
    """Worker loop: host one provider, serve transport envelopes over the pipe."""
    from .transport import serve_request  # imports this module

    blocks: list[shared_memory.SharedMemory] = []
    try:
        table = _RowsView(spec.schema, blocks).table(spec.table, 0, spec.table.rows)
        provider = DataProvider(table=table, rng=0, **spec.settings)
        # Adopt the parent provider's exact stream position so the worker
        # draws precisely what the in-process provider would have drawn,
        # and its keyed-stream entropy so seed_material-pinned queries
        # land on identical noise streams on every carrier.
        provider._rng.bit_generator.state = spec.rng_state
        provider._stream_entropy = spec.stream_entropy
        delta_view = _RowsView(spec.schema, blocks)

        def ingest(_provider, payload):
            # Append-only mirror of the parent's delta store, so later
            # phases pin identical watermarks.  Workers never compact
            # (auto_compact=False): compaction is a parent-side decision
            # whose epoch bump tears the hosts down.
            rows = delta_view.table(payload["buffer"], payload["start"], payload["stop"])
            return provider.ingest_rows(rows, auto_compact=False)

        def serve(envelope, recorder):
            return serve_request(
                [provider],
                envelope,
                tracer=recorder,
                kind="process",
                local_ops={"ingest": ingest},
            )

        if spec.delta.rows:
            ingest(provider, {"buffer": spec.delta, "start": 0, "stop": spec.delta.rows})
        conn.send({"ready": True})
        while True:
            envelope = conn.recv()
            op = envelope.get("op")
            if op == "close":
                break
            if op == "chaos":
                # Scripted fault directive from the parent's FaultInjector —
                # one-way, and only ever accepted on this (trusted) pipe.
                if envelope["payload"]["kind"] == "crash_worker":
                    os._exit(17)
                time.sleep(float(envelope["payload"]["seconds"]))
                continue
            recorder = SpanRecorder(provider.provider_id)
            if envelope.get("telemetry"):
                with collect_kernel_telemetry() as collector:
                    reply = serve(envelope, recorder)
                reply["telemetry"] = collector.as_dict()
            else:
                reply = serve(envelope, recorder)
            if "ok" in reply:
                reply["rng"] = provider._rng.bit_generator.state
            if recorder.records:
                reply["spans"] = recorder.records
            for _ in range(2 if envelope.get("dup") else 1):
                conn.send(reply)
    finally:
        for block in blocks:
            block.close()
        conn.close()


class ProviderHost:
    """Parent-side handle of one hosted provider.

    Owns the provider's shared table block and delta buffer (both outlive
    any single worker, so a respawn never re-exports the table) plus the
    current worker process and the pipe to it.  Must be closed to stop the
    worker and unlink the blocks.
    """

    def __init__(self, provider) -> None:
        self.provider = provider
        self.conn = None
        self._process = None
        names = provider.table.schema.column_names
        self._table = _SharedRows(names, capacity=provider.table.num_rows)
        self.delta_buffer: _SharedRows | None = None
        try:
            self._table.append(provider.table)
            self.delta_buffer = _SharedRows(names)
        except BaseException:
            self.close()
            raise

    @property
    def alive(self) -> bool:
        """Whether a worker is currently reachable over the pipe."""
        return self.conn is not None

    def block_names(self) -> list[str]:
        """Names of the live shared-memory blocks this host owns."""
        buffers = (self._table, self.delta_buffer)
        return [
            buffer.block_name
            for buffer in buffers
            if buffer is not None and buffer.block_name
        ]

    def start(self, rng_state: dict) -> None:
        """Launch a worker over the existing blocks (returns before it is ready).

        ``rng_state`` is the stream position the worker's provider adopts:
        the parent provider's current one, or a checkpoint when the
        transport is about to replay a summary on it.
        """
        provider = self.provider
        spec = _ProviderSpec(
            settings={
                field.name: getattr(provider, field.name)
                for field in dataclasses.fields(DataProvider)
                if field.init and field.name not in ("table", "rng")
            },
            schema=provider.table.schema,
            table=self._table.spec(),
            delta=self.delta_buffer.spec(),
            rng_state=rng_state,
            stream_entropy=provider._stream_entropy,
        )
        context = mp.get_context()
        self.conn, child_conn = context.Pipe()
        self._process = context.Process(
            target=_worker_main, args=(child_conn, spec), daemon=True
        )
        self._process.start()
        child_conn.close()

    def await_ready(self, timeout: float) -> None:
        """Block until the launched worker has rebuilt its provider."""
        provider_id = self.provider.provider_id
        try:
            if not self.conn.poll(timeout):
                raise TransportError(
                    f"provider worker for {provider_id!r} was not ready within {timeout}s"
                )
            self.conn.recv()
        except (EOFError, OSError) as error:
            raise TransportError(
                f"provider worker for {provider_id!r} died while starting: {error!r}"
            ) from error

    def kill(self) -> None:
        """Sever the pipe and terminate the worker (the blocks stay)."""
        if self.conn is not None:
            self.conn.close()
            self.conn = None
        if self._process is not None and self._process.is_alive():
            self._process.terminate()
            self._process.join(timeout=5)
        self._process = None

    def close(self) -> None:
        """Stop the worker and unlink every shared block (idempotent)."""
        if self.conn is not None:
            try:
                self.conn.send({"op": "close"})
                self._process.join(timeout=5)
            except OSError:
                pass
        self.kill()
        self._table.close()
        if self.delta_buffer is not None:
            self.delta_buffer.close()
