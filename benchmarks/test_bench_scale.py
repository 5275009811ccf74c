"""Engine scale benchmark: size × selectivity × layout shape, oracle vs production.

Times the exact ``Q(C)`` batch kernel at two sizes and three selectivity
levels for the two evaluators the layout has:

* ``dense`` — the test oracle ``cluster_values_dense``: every (query,
  cluster) pair is row-evaluated, work O(Q·N);
* ``production`` — ``cluster_values``: zone-map classify, covered segment
  sums, sorted bisection, tiled row scan;

over two layout shapes chosen so every stage of the production path is
actually timed somewhere:

* ``sorted`` — clustered by ``key``, queries on ``key`` alone: straddlers
  resolve by bisection and no row is read (``pairs_bisected > 0``,
  ``rows_evaluated == 0``);
* ``unsorted`` — insertion-order clusters, queries on ``key`` × ``aux``: the
  zone maps prune nothing, so the row kernel and its tiling do all the work
  (``rows_evaluated > 0``, ``tiles >= 1``, ``max_tile_bytes > 0``).

The acceptance gate: on the sorted shape at the full size on the
low-selectivity workload (≤ 5 % of clusters covered) production must be at
least ``REPRO_BENCH_MIN_PRUNE_SPEEDUP``x (default 3x) faster than the
oracle, with bit-identical values everywhere and the peak tile footprint
within ``MAX_KERNEL_BYTES``.

A second leg times the full DP protocol on a 4-provider federation on the
in-process transport and on the ``"process"`` carrier (one shared-memory
worker per provider), at a shape where hosting is meant to win: 64-query
batches over >= 1M rows, so per-provider work dwarfs the pipe round trips.
The carriers are asserted bit-identical; their timings are recorded without
a gate — the process carrier's win is core-count dependent and CI boxes may
be single-core.

With ``REPRO_BENCH_RECORD=1`` entries append to
``results/BENCH_scale.json`` via the shared harness.
Scale knobs: ``REPRO_BENCH_SCALE_ROWS`` (default 1 000 000),
``REPRO_BENCH_SCALE_BACKEND_ROWS`` (default 1 000 000).
"""

from __future__ import annotations

import os
import time

import numpy as np
from _harness import record_bench

from repro.config import SamplingConfig, SystemConfig, TransportConfig
from repro.core.system import FederatedAQPSystem
from repro.query.batch import QueryBatch
from repro.query.model import RangeQuery
from repro.storage.clustered_table import ClusteredTable
from repro.storage.layout import MAX_KERNEL_BYTES, collect_kernel_telemetry
from repro.storage.schema import Dimension, Schema
from repro.storage.table import Table

SCALE_ROWS = int(os.environ.get("REPRO_BENCH_SCALE_ROWS", "1000000"))
BACKEND_ROWS = int(os.environ.get("REPRO_BENCH_SCALE_BACKEND_ROWS", "1000000"))
NUM_QUERIES = 16
BACKEND_QUERIES = 64
REPS = 3
CLUSTER_SIZE = 1000
KEY_DOMAIN = 10_000
AUX_DOMAIN = 100
# Required production-over-oracle speedup at full size / low selectivity on
# the sorted shape.  3x is the acceptance floor on a quiet machine; noisy
# shared CI runners can relax it via the environment without touching code.
MIN_PRUNE_SPEEDUP = float(
    os.environ.get(
        "REPRO_BENCH_MIN_PRUNE_SPEEDUP",
        os.environ.get("REPRO_BENCH_MIN_SPEEDUP", "3.0"),
    )
)

SCHEMA = Schema(
    (
        Dimension("key", 0, KEY_DOMAIN - 1),
        Dimension("aux", 0, AUX_DOMAIN - 1),
        Dimension("cat", 0, 9),
    )
)

# Fraction of the key domain each query's range spans; with the sorted
# clustering policy the covered-cluster fraction tracks it closely.
SELECTIVITIES = {"low": 0.04, "mid": 0.25, "high": 0.80}

# shape -> (clustering policy, whether the queries also constrain ``aux``).
SHAPES = {"sorted": ("sorted", False), "unsorted": ("sequential", True)}


def _table(num_rows: int, seed: int) -> Table:
    rng = np.random.default_rng(seed)
    return Table(
        SCHEMA,
        {
            "key": rng.integers(0, KEY_DOMAIN, num_rows),
            "aux": rng.integers(0, AUX_DOMAIN, num_rows),
            "cat": rng.integers(0, 10, num_rows),
        },
    )


def _workload(
    selectivity: float,
    seed: int,
    num_queries: int = NUM_QUERIES,
    *,
    with_aux: bool = False,
) -> QueryBatch:
    rng = np.random.default_rng(seed)
    width = max(1, int(selectivity * KEY_DOMAIN))
    queries = []
    for _ in range(num_queries):
        low = int(rng.integers(0, max(1, KEY_DOMAIN - width)))
        ranges = {"key": (low, low + width - 1)}
        if with_aux:
            aux_low = int(rng.integers(0, AUX_DOMAIN // 2))
            ranges["aux"] = (aux_low, aux_low + AUX_DOMAIN // 2 - 1)
        queries.append(RangeQuery.count(ranges))
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
    for num_rows in sizes:
        table = _table(num_rows, seed=0)
        for shape, (policy, with_aux) in SHAPES.items():
            layout = ClusteredTable.from_table(
                table, CLUSTER_SIZE, policy=policy, sort_by="key"
            ).layout()
            for level, selectivity in SELECTIVITIES.items():
                batch = _workload(selectivity, seed=42, with_aux=with_aux)
                with collect_kernel_telemetry() as stats:
                    values = layout.cluster_values(batch)
                assert np.array_equal(values, layout.cluster_values_dense(batch)), (
                    shape,
                    level,
                    num_rows,
                )
                assert stats.max_tile_bytes <= MAX_KERNEL_BYTES, (
                    f"kernel peak {stats.max_tile_bytes} exceeds {MAX_KERNEL_BYTES}"
                )
                if shape == "sorted":
                    assert stats.pairs_bisected > 0 and stats.rows_evaluated == 0
                else:
                    assert stats.rows_evaluated > 0 and stats.tiles >= 1
                    assert stats.max_tile_bytes > 0
                timings = {
                    "dense": _best_seconds(lambda: layout.cluster_values_dense(batch)),
                    "production": _best_seconds(lambda: layout.cluster_values(batch)),
                }
                matrix.append(
                    {
                        "rows": num_rows,
                        "shape": shape,
                        "selectivity": level,
                        "covered_cluster_fraction": round(
                            _covered_fraction(layout, batch), 4
                        ),
                        "seconds": {k: round(v, 6) for k, v in timings.items()},
                        "qps": {
                            k: round(NUM_QUERIES / v, 1) for k, v in timings.items()
                        },
                        "prune_speedup": round(
                            timings["dense"] / timings["production"], 2
                        ),
                        "rows_evaluated": stats.rows_evaluated,
                        "pairs_bisected": stats.pairs_bisected,
                        "tiles": stats.tiles,
                        "max_tile_bytes": stats.max_tile_bytes,
                    }
                )
                if (num_rows, shape, level) == (SCALE_ROWS, "sorted", "low"):
                    gate_layout, gate_batch = layout, batch

    record_bench(
        "scale",
        params={
            "num_queries": NUM_QUERIES,
            "cluster_size": CLUSTER_SIZE,
            "reps": REPS,
            "max_kernel_bytes": MAX_KERNEL_BYTES,
            "sizes": sizes,
        },
        metrics={"matrix": matrix},
    )
    for point in matrix:
        print(
            f"\nscale {point['rows']:>8} rows, {point['shape']:<8} "
            f"{point['selectivity']:<4}: dense {point['qps']['dense']:>8} q/s, "
            f"production {point['qps']['production']:>10} q/s "
            f"({point['prune_speedup']}x)"
        )

    low = next(
        p
        for p in matrix
        if (p["rows"], p["shape"], p["selectivity"]) == (SCALE_ROWS, "sorted", "low")
    )
    if SCALE_ROWS >= 500_000:
        # The "≤ 5 % of clusters covered" framing of the acceptance gate
        # only holds once there are enough clusters for the fixed-width
        # ranges to be narrow relative to the table; at smoke sizes the
        # fraction is a clustering-granularity artifact, so it is recorded
        # but not asserted.
        assert low["covered_cluster_fraction"] <= 0.05
    assert low["prune_speedup"] >= MIN_PRUNE_SPEEDUP, (
        f"production must be >= {MIN_PRUNE_SPEEDUP}x the dense oracle on the sorted "
        f"low-selectivity workload at {SCALE_ROWS} rows, got {low['prune_speedup']}x"
    )

    benchmark(lambda: gate_layout.cluster_values(gate_batch))


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
