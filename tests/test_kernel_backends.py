"""Compiled kernel tier: backend resolution, fallback, and bit-identity.

The kernel tier promises one semantic under every backend: the numba and
numpy implementations of the straddler kernels only ever add int64 measures,
so their results must be *byte-identical* — not merely close.  This module
pins that contract:

* :func:`repro.storage.kernels.resolve_backend` maps every
  ``ExecutionConfig.kernel_backend`` setting onto the backend that runs,
  warning exactly once per process when an explicit ``"numba"`` request
  degrades to the numpy path;
* a Hypothesis sweep asserts backend equality over randomized tables
  (mixed input dtypes, empty clusters) and over watermark-pinned delta
  snapshots against a per-query reference;
* the process carrier's delta path ships rows through shared memory with **zero**
  pickled row bytes, asserted via the pool's own accounting.
"""

from __future__ import annotations

import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import repro.storage.kernels as kernels
from repro.config import (
    DENSE_EXECUTION,
    ExecutionConfig,
    IngestConfig,
    SystemConfig,
    TransportConfig,
)
from repro.core.system import FederatedAQPSystem
from repro.ingest import DeltaStore
from repro.query.batch import QueryBatch
from repro.query.executor import execute_on_table
from repro.query.model import RangeQuery
from repro.storage.cluster import Cluster
from repro.storage.clustered_table import ClusteredTable
from repro.storage.layout import collect_kernel_telemetry
from repro.storage.schema import Dimension, Schema
from repro.storage.table import Table

SCHEMA = Schema((Dimension("x", 0, 99), Dimension("y", 0, 19)))

BACKENDS = ("numpy", "numba", "auto")


# -- resolution --------------------------------------------------------------


class TestResolveBackend:
    def test_numpy_request_always_runs_numpy(self):
        backend = kernels.resolve_backend("numpy")
        assert backend.name == "numpy"
        assert backend.requested == "numpy"
        assert not backend.compiled
        assert backend.fallback_reason == ""

    @pytest.mark.skipif(kernels.numba_available(), reason="numba installed")
    def test_auto_without_numba_is_a_quiet_numpy(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # any warning would fail the test
            backend = kernels.resolve_backend("auto")
        assert backend.name == "numpy"
        assert backend.fallback_reason == ""

    @pytest.mark.skipif(kernels.numba_available(), reason="numba installed")
    def test_numba_request_without_numba_records_the_reason(self, monkeypatch):
        monkeypatch.setattr(kernels, "_warned_fallback", False)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            first = kernels.resolve_backend("numba")
            second = kernels.resolve_backend("numba")
        assert first.name == "numpy"
        assert "numba" in first.fallback_reason
        assert second.fallback_reason == first.fallback_reason
        # Warn-once: hot loops resolve per call but users hear about the
        # degradation exactly one time per process.
        runtime = [w for w in caught if issubclass(w.category, RuntimeWarning)]
        assert len(runtime) == 1
        assert "falling back" in str(runtime[0].message)

    @pytest.mark.skipif(not kernels.numba_available(), reason="numba missing")
    def test_numba_available_serves_auto_and_explicit_requests(self):
        for requested in ("auto", "numba"):
            backend = kernels.resolve_backend(requested)
            assert backend.name == "numba"
            assert backend.compiled
            assert backend.fallback_reason == ""

    def test_execution_config_rejects_unknown_backends(self):
        with pytest.raises(Exception, match="kernel_backend"):
            ExecutionConfig(kernel_backend="cython")


# -- property sweep: backends are byte-identical -----------------------------


@st.composite
def chunked_tables(draw):
    """Cluster-sized chunks with mixed input dtypes, some of them empty."""
    sizes = draw(st.lists(st.integers(0, 40), min_size=1, max_size=6))
    seed = draw(st.integers(0, 2**31 - 1))
    dtype = draw(st.sampled_from([np.int16, np.int32, np.int64]))
    rng = np.random.default_rng(seed)
    return [
        Table(
            SCHEMA,
            {
                "x": rng.integers(0, 100, n).astype(dtype),
                "y": rng.integers(0, 20, n).astype(dtype),
            },
        )
        for n in sizes
    ]


@st.composite
def boxes(draw):
    x_low = draw(st.integers(0, 99))
    x_high = draw(st.integers(x_low, 99))
    y_low = draw(st.integers(0, 19))
    y_high = draw(st.integers(y_low, 19))
    which = draw(st.integers(0, 2))
    if which == 0:
        return RangeQuery.count({"x": (x_low, x_high)})
    if which == 1:
        return RangeQuery.count({"y": (y_low, y_high)})
    return RangeQuery.count({"x": (x_low, x_high), "y": (y_low, y_high)})


@given(chunked_tables(), st.lists(boxes(), min_size=1, max_size=4))
def test_backends_byte_identical_on_random_layouts(chunks, queries):
    clustered = ClusteredTable(
        clusters=tuple(
            Cluster(cluster_id=index, rows=chunk, nominal_size=64)
            for index, chunk in enumerate(chunks)
        ),
        cluster_size=64,
    )
    layout = clustered.layout()
    batch = QueryBatch(tuple(queries))
    reference = layout.cluster_values(batch, execution=DENSE_EXECUTION)
    assert reference.dtype == np.int64
    for backend in BACKENDS:
        execution = ExecutionConfig(
            prune=True, sorted_bisect=False, kernel_backend=backend
        )
        values = layout.cluster_values(batch, execution=execution)
        assert values.dtype == reference.dtype
        assert np.array_equal(values, reference), backend


@st.composite
def delta_scenarios(draw):
    chunks = draw(st.lists(chunked_tables(), min_size=1, max_size=2))
    flat = [table for group in chunks for table in group]
    total = sum(table.num_rows for table in flat)
    queries = draw(st.lists(boxes(), min_size=1, max_size=4))
    watermarks = [draw(st.integers(0, total)) for _ in queries]
    return flat, queries, watermarks


@given(delta_scenarios())
def test_delta_snapshot_batch_eval_matches_per_query_reference(scenario):
    """Watermark-pinned batch evaluation ≡ slicing the prefix and scanning it."""
    flat, queries, watermarks = scenario
    store = DeltaStore(SCHEMA)
    for table in flat:
        store.append(table)
    values, scanned = store.query_values(queries, watermarks)
    assert values.dtype == np.int64
    for index, (query, watermark) in enumerate(zip(queries, watermarks)):
        visible = store.rows_upto(watermark)
        assert values[index] == execute_on_table(visible, query)
        assert 0 <= scanned[index] <= visible.num_rows


def test_system_backends_identical_with_live_deltas():
    """End to end: DP answers are invariant under the kernel backend, with
    uncompacted delta rows in the read path."""
    rng = np.random.default_rng(61)
    base = Table(
        SCHEMA,
        {"x": rng.integers(0, 100, 3000), "y": rng.integers(0, 20, 3000)},
    )
    delta = Table(
        SCHEMA,
        {"x": rng.integers(0, 100, 200), "y": rng.integers(0, 20, 200)},
    )
    queries = [
        RangeQuery.count({"x": (10, 60)}),
        RangeQuery.count({"x": (0, 99), "y": (3, 9)}),
        RangeQuery.count({"y": (0, 4)}),
    ]
    reference = None
    for backend in BACKENDS:
        config = SystemConfig(
            cluster_size=150,
            num_providers=3,
            seed=17,
            ingest=IngestConfig(max_delta_rows=10**6),
        ).with_execution(ExecutionConfig(kernel_backend=backend))
        system = FederatedAQPSystem.from_table(base, config=config)
        system.ingest(delta)
        result = system.execute_batch(queries, compute_exact=True)
        summary = [
            (r.value, r.exact_value) for r in result.results
        ]
        if reference is None:
            reference = summary
        else:
            assert summary == reference, backend


# -- process carrier: zero pickled delta-row bytes ---------------------------


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
    base = Table(
        SCHEMA,
        {"x": rng.integers(0, 100, 400), "y": rng.integers(0, 20, 400)},
    )
    early = Table(
        SCHEMA,
        {"x": rng.integers(0, 100, 30), "y": rng.integers(0, 20, 30)},
    )
    late = Table(
        SCHEMA,
        {"x": rng.integers(0, 100, 1000), "y": rng.integers(0, 20, 1000)},
    )
    queries = [
        RangeQuery.count({"x": (5, 80)}),
        RangeQuery.count({"y": (2, 11)}),
    ]
    tokens = [(9, index) for index in range(len(queries))]
    pooled_config = SystemConfig(
        cluster_size=32,
        num_providers=2,
        seed=7,
        ingest=IngestConfig(max_delta_rows=10**6),
        transport=TransportConfig(kind="process"),
    )
    serial_config = SystemConfig(
        cluster_size=32,
        num_providers=2,
        seed=7,
        ingest=IngestConfig(max_delta_rows=10**6),
    )
    with FederatedAQPSystem.from_table(base, config=pooled_config) as pooled:
        pooled.ingest(early)  # pending before the workers exist
        first = pooled.execute_batch(queries, seed_tokens=tokens)
        stats = pooled.aggregator.transport.carrier_stats
        assert stats["delta_rows_shipped"] == early.num_rows
        pipe_bytes = pooled.transport_stats().bytes_sent
        pooled.ingest(late)  # mirrored onto live workers
        # One small descriptor + ack per provider — not 1000 rows x 2 columns.
        assert pooled.transport_stats().bytes_sent - pipe_bytes < late.memory_bytes()
        second = pooled.execute_batch(queries, seed_tokens=tokens)
        assert stats["delta_rows_shipped"] == early.num_rows + late.num_rows
        assert stats["delta_shared_bytes"] > 0
        assert stats["delta_rows_pickled_bytes"] == 0
    with FederatedAQPSystem.from_table(base, config=serial_config) as plain:
        plain.ingest(early)
        plain_first = plain.execute_batch(queries, seed_tokens=tokens)
        plain.ingest(late)
        plain_second = plain.execute_batch(queries, seed_tokens=tokens)
    assert [r.value for r in first.results] == [r.value for r in plain_first.results]
    assert [r.value for r in second.results] == [r.value for r in plain_second.results]


def test_backend_axis_shows_up_in_system_telemetry():
    rng = np.random.default_rng(71)
    table = Table(
        SCHEMA,
        {"x": rng.integers(0, 100, 2000), "y": rng.integers(0, 20, 2000)},
    )
    layout = ClusteredTable.from_table(table, cluster_size=100).layout()
    batch = QueryBatch((RangeQuery.count({"x": (20, 77)}),))
    requested = "auto"
    with collect_kernel_telemetry() as telemetry:
        layout.cluster_values(
            batch,
            execution=ExecutionConfig(
                prune=True, sorted_bisect=False, kernel_backend=requested
            ),
        )
    expected = "numba" if kernels.numba_available() else "numpy"
    assert telemetry.backend == expected
