"""Pruned-engine scale benchmark: size × selectivity × engine × backend.

Times the exact ``Q(C)`` batch kernel over a sorted-clustered table at two
sizes and three selectivity levels, for four engine configurations:

* ``dense`` — the reference engine (no pruning, no tiling): every
  (query, cluster) pair is row-evaluated, work and peak memory O(Q·N);
* ``pruned`` — zone-map pruning only (skip non-overlapping clusters,
  short-circuit fully covered ones to segment sums);
* ``pruned_sorted`` — plus sorted-layout bisection for straddling clusters;
* ``pruned_sorted_tiled`` — plus an 8 MiB kernel memory budget.

The acceptance gate is the tentpole claim: at the full size on the
low-selectivity workload (≤ 5 % of clusters covered) the pruned engine must
be at least ``REPRO_BENCH_MIN_PRUNE_SPEEDUP``x (default 3x) faster than the
dense engine, with every engine returning bit-identical values and the
tiled engine's peak tile footprint bounded by its budget.

A second leg times the full DP protocol on a 4-provider federation on the
in-process transport and on the ``"process"`` carrier (one shared-memory
worker per provider), at a shape where hosting is meant to win: 64-query
batches over >= 1M rows, so per-provider work dwarfs the pipe round trips.
The carriers are asserted bit-identical; their timings are recorded without
a gate — the process carrier's win is core-count dependent and CI boxes may
be single-core.

Entries append to ``results/BENCH_scale.json`` via the shared harness.
Scale knobs: ``REPRO_BENCH_SCALE_ROWS`` (default 1 000 000),
``REPRO_BENCH_SCALE_BACKEND_ROWS`` (default 1 000 000).
"""

from __future__ import annotations

import os
import time

import numpy as np
from _harness import record_bench

from repro.config import (
    DENSE_EXECUTION,
    ExecutionConfig,
    SamplingConfig,
    SystemConfig,
    TransportConfig,
)
from repro.core.system import FederatedAQPSystem
from repro.query.batch import QueryBatch
from repro.query.model import RangeQuery
from repro.storage.clustered_table import ClusteredTable
from repro.storage.kernels import numba_available
from repro.storage.layout import collect_kernel_telemetry
from repro.storage.schema import Dimension, Schema
from repro.storage.table import Table

SCALE_ROWS = int(os.environ.get("REPRO_BENCH_SCALE_ROWS", "1000000"))
BACKEND_ROWS = int(os.environ.get("REPRO_BENCH_SCALE_BACKEND_ROWS", "1000000"))
NUM_QUERIES = 16
BACKEND_QUERIES = 64
REPS = 3
CLUSTER_SIZE = 1000
KEY_DOMAIN = 10_000
TILE_BUDGET = 8 * 2**20
# Required pruned-over-dense speedup at full size / low selectivity.  3x is
# the acceptance floor on a quiet machine; noisy shared CI runners can relax
# it via the environment without touching code.
MIN_PRUNE_SPEEDUP = float(
    os.environ.get(
        "REPRO_BENCH_MIN_PRUNE_SPEEDUP",
        os.environ.get("REPRO_BENCH_MIN_SPEEDUP", "3.0"),
    )
)

# Required compiled-over-numpy kernel speedup on the dense-residual leg.
# Only enforced when numba is importable — the pure-NumPy fallback is a
# correctness path, not a performance claim.
MIN_KERNEL_SPEEDUP = float(os.environ.get("REPRO_BENCH_MIN_KERNEL_SPEEDUP", "5.0"))

SCHEMA = Schema(
    (
        Dimension("key", 0, KEY_DOMAIN - 1),
        Dimension("aux", 0, 99),
        Dimension("cat", 0, 9),
    )
)

ENGINES = {
    "dense": DENSE_EXECUTION,
    "pruned": ExecutionConfig(prune=True, sorted_bisect=False, max_kernel_bytes=None),
    "pruned_sorted": ExecutionConfig(prune=True, sorted_bisect=True, max_kernel_bytes=None),
    "pruned_sorted_tiled": ExecutionConfig(
        prune=True, sorted_bisect=True, max_kernel_bytes=TILE_BUDGET
    ),
}

# Fraction of the key domain each query's range spans; with the sorted
# clustering policy the covered-cluster fraction tracks it closely.
SELECTIVITIES = {"low": 0.04, "mid": 0.25, "high": 0.80}


def _table(num_rows: int, seed: int) -> Table:
    rng = np.random.default_rng(seed)
    return Table(
        SCHEMA,
        {
            "key": rng.integers(0, KEY_DOMAIN, num_rows),
            "aux": rng.integers(0, 100, num_rows),
            "cat": rng.integers(0, 10, num_rows),
        },
    )


def _workload(
    selectivity: float, seed: int, num_queries: int = NUM_QUERIES
) -> QueryBatch:
    rng = np.random.default_rng(seed)
    width = max(1, int(selectivity * KEY_DOMAIN))
    queries = []
    for _ in range(num_queries):
        low = int(rng.integers(0, max(1, KEY_DOMAIN - width)))
        queries.append(RangeQuery.count({"key": (low, low + width - 1)}))
    return QueryBatch(tuple(queries))


def _best_seconds(fn) -> float:
    best = float("inf")
    for _ in range(REPS):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def _covered_fraction(layout, batch: QueryBatch) -> float:
    """Fraction of (query, cluster) pairs whose zones overlap the query."""
    lows, highs = batch.bounds(0, KEY_DOMAIN)["key"]
    overlap = (layout.zone_max["key"][None, :] >= lows[:, None]) & (
        layout.zone_min["key"][None, :] <= highs[:, None]
    )
    return float(overlap.mean())


def test_scale_matrix_and_prune_speedup(benchmark):
    sizes = sorted({max(SCALE_ROWS // 4, 1000), SCALE_ROWS})
    matrix = []
    gate_speedup = None
    for num_rows in sizes:
        table = _table(num_rows, seed=0)
        layout = ClusteredTable.from_table(
            table, CLUSTER_SIZE, policy="sorted", sort_by="key"
        ).layout()
        for level, selectivity in SELECTIVITIES.items():
            batch = _workload(selectivity, seed=42)
            covered = _covered_fraction(layout, batch)
            reference = layout.cluster_values(batch, execution=DENSE_EXECUTION)
            timings: dict[str, float] = {}
            for engine, execution in ENGINES.items():
                values = layout.cluster_values(batch, execution=execution)
                assert np.array_equal(values, reference), (engine, level, num_rows)
                timings[engine] = _best_seconds(
                    lambda execution=execution: layout.cluster_values(
                        batch, execution=execution
                    )
                )
            with collect_kernel_telemetry() as stats:
                layout.cluster_values(batch, execution=ENGINES["pruned_sorted_tiled"])
            assert stats.max_tile_bytes <= TILE_BUDGET, (
                f"tiled kernel peak {stats.max_tile_bytes} exceeds budget {TILE_BUDGET}"
            )
            speedup = timings["dense"] / timings["pruned_sorted"]
            matrix.append(
                {
                    "rows": num_rows,
                    "selectivity": level,
                    "covered_cluster_fraction": round(covered, 4),
                    "seconds": {k: round(v, 6) for k, v in timings.items()},
                    "qps": {
                        k: round(NUM_QUERIES / v, 1) for k, v in timings.items()
                    },
                    "prune_speedup": round(speedup, 2),
                    "rows_evaluated_pruned": stats.rows_evaluated,
                    "pairs_bisected": stats.pairs_bisected,
                    "max_tile_bytes": stats.max_tile_bytes,
                }
            )
            if num_rows == SCALE_ROWS and level == "low":
                gate_speedup = speedup
                gate_layout, gate_batch = layout, batch

    record_bench(
        "scale",
        params={
            "num_queries": NUM_QUERIES,
            "cluster_size": CLUSTER_SIZE,
            "reps": REPS,
            "tile_budget_bytes": TILE_BUDGET,
            "sizes": sizes,
        },
        metrics={"matrix": matrix},
    )
    for point in matrix:
        print(
            f"\nscale {point['rows']:>8} rows, {point['selectivity']:<4}: "
            f"dense {point['qps']['dense']:>8} q/s, pruned+sorted "
            f"{point['qps']['pruned_sorted']:>10} q/s ({point['prune_speedup']}x)"
        )

    assert gate_speedup is not None
    low = next(
        p for p in matrix if p["rows"] == SCALE_ROWS and p["selectivity"] == "low"
    )
    if SCALE_ROWS >= 500_000:
        # The "≤ 5 % of clusters covered" framing of the acceptance gate
        # only holds once there are enough clusters for the fixed-width
        # ranges to be narrow relative to the table; at smoke sizes the
        # fraction is a clustering-granularity artifact, so it is recorded
        # but not asserted.
        assert low["covered_cluster_fraction"] <= 0.05
    assert gate_speedup >= MIN_PRUNE_SPEEDUP, (
        f"pruned engine must be >= {MIN_PRUNE_SPEEDUP}x the dense engine on the "
        f"low-selectivity workload at {SCALE_ROWS} rows, got {gate_speedup:.2f}x"
    )

    benchmark(
        lambda: gate_layout.cluster_values(
            gate_batch, execution=ENGINES["pruned_sorted"]
        )
    )


def test_scale_compiled_tier_dense_residual():
    """Kernel-backend leg: the dense residual (row-evaluated straddlers).

    A *sequentially* clustered table gives the zone maps almost nothing to
    prune and leaves nearly every covered (query, cluster) pair straddling,
    so this workload is pure row evaluation — exactly the path the compiled
    kernel tier fuses.  The backends must be bit-identical; the ``>=``
    ``REPRO_BENCH_MIN_KERNEL_SPEEDUP`` gate (default 5x) applies only when
    numba is importable.
    """
    table = _table(SCALE_ROWS, seed=2)
    layout = ClusteredTable.from_table(table, CLUSTER_SIZE).layout()
    batch = _workload(SELECTIVITIES["mid"], seed=11)
    execution_by_backend = {
        backend: ExecutionConfig(
            prune=True, sorted_bisect=False, kernel_backend=backend
        )
        for backend in (["numpy", "numba"] if numba_available() else ["numpy"])
    }
    reference = None
    timings: dict[str, float] = {}
    fused: dict[str, int] = {}
    for backend, execution in execution_by_backend.items():
        with collect_kernel_telemetry() as stats:
            values = layout.cluster_values(batch, execution=execution)
        if reference is None:
            reference = values
        assert np.array_equal(values, reference), backend
        assert stats.backend == backend
        fused[backend] = stats.pairs_fused
        timings[backend] = _best_seconds(
            lambda execution=execution: layout.cluster_values(
                batch, execution=execution
            )
        )
    speedup = (
        round(timings["numpy"] / timings["numba"], 2) if "numba" in timings else None
    )
    record_bench(
        "scale",
        params={
            "leg": "compiled_kernels",
            "rows": SCALE_ROWS,
            "num_queries": NUM_QUERIES,
            "cluster_size": CLUSTER_SIZE,
            "numba_available": numba_available(),
        },
        metrics={
            "seconds": {k: round(v, 6) for k, v in timings.items()},
            "pairs_fused": fused,
            "kernel_speedup": speedup,
        },
    )
    print(
        "\ncompiled-tier seconds: "
        + ", ".join(f"{k} {v:.4f}s" for k, v in timings.items())
    )
    if numba_available():
        assert speedup is not None
        assert speedup >= MIN_KERNEL_SPEEDUP, (
            f"compiled kernels must be >= {MIN_KERNEL_SPEEDUP}x the numpy kernels "
            f"on the dense-residual leg at {SCALE_ROWS} rows, got {speedup:.2f}x"
        )


def test_scale_backend_matrix():
    table = _table(BACKEND_ROWS, seed=1)
    base = SystemConfig(
        cluster_size=CLUSTER_SIZE,
        num_providers=4,
        sampling=SamplingConfig(sampling_rate=0.1, min_clusters_for_approximation=4),
        seed=5,
    )
    queries = list(_workload(SELECTIVITIES["mid"], seed=7, num_queries=BACKEND_QUERIES))
    backends = {
        "inprocess": base,
        "process": base.with_transport(TransportConfig(kind="process")),
    }
    reference = None
    timings = {}
    for backend, config in backends.items():
        with FederatedAQPSystem.from_table(table, config=config) as system:
            values = system.execute_batch(queries, compute_exact=False).values
            if reference is None:
                reference = values
            assert values == reference, backend
            timings[backend] = _best_seconds(
                lambda system=system: system.execute_batch(
                    queries, compute_exact=False
                )
            )
    record_bench(
        "scale",
        params={
            "leg": "backends",
            "rows": BACKEND_ROWS,
            "num_queries": BACKEND_QUERIES,
            "num_providers": 4,
        },
        metrics={
            "seconds": {k: round(v, 6) for k, v in timings.items()},
            "process_speedup": round(timings["inprocess"] / timings["process"], 2),
        },
    )
    print(
        "\nbackend seconds: "
        + ", ".join(f"{k} {v:.3f}s" for k, v in timings.items())
    )
