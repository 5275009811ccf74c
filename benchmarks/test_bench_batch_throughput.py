"""Batch engine micro-benchmark: queries/sec, batch vs per-query loop.

Runs a 16-query workload against a ~100k-row federation twice — once as a
sequential per-query loop (``system.execute`` per query) and once as a single
``system.execute_batch`` call — and records the throughput of each.  The
batch path must be at least 2x faster; its results are also checked to be
bit-identical to the sequential loop under the same seed.

Each recording run (``REPRO_BENCH_RECORD=1``) appends an entry to
``results/BENCH_batch_throughput.json`` through
the shared harness (see :mod:`_harness` for the schema) so the performance
trajectory across commits can be tracked.
"""

from __future__ import annotations

import os
import time

from _harness import record_bench

from repro.experiments.scenarios import adult_scenario
from repro.query.model import Aggregation

NUM_QUERIES = 16
NUM_ROWS = 100_000
REPS = 7
# Required batch-over-sequential speedup.  2x on a quiet machine; noisy
# shared CI runners can relax it via the environment without touching code.
MIN_SPEEDUP = float(os.environ.get("REPRO_BENCH_MIN_SPEEDUP", "2.0"))


def _scenario():
    return adult_scenario(num_rows=NUM_ROWS, seed=0)


def _workload(scenario):
    generator = scenario.workload_generator(seed=11)
    accept_batch = scenario.batch_acceptance_predicate(min_selectivity=0.02)
    return list(
        generator.generate(NUM_QUERIES, 3, Aggregation.COUNT, accept_batch=accept_batch)
    )


def test_batch_throughput_vs_sequential(benchmark):
    scenario = _scenario()
    queries = _workload(scenario)
    system = scenario.system

    # Same-seed equivalence: the batch engine must return exactly what the
    # per-query loop returns, so the throughput comparison is apples to
    # apples.
    loop_system = _scenario().system
    sequential_values = [
        loop_system.execute(query, compute_exact=False).value for query in queries
    ]
    batch_system = _scenario().system
    batch_values = [
        result.value
        for result in batch_system.execute_batch(queries, compute_exact=False).results
    ]
    assert batch_values == sequential_values

    # Warm the layouts and metadata caches, then measure steady state.
    system.execute_batch(queries, compute_exact=False)
    sequential_seconds = []
    batch_seconds = []
    for _ in range(REPS):
        start = time.perf_counter()
        for query in queries:
            system.execute(query, compute_exact=False)
        sequential_seconds.append(time.perf_counter() - start)
        start = time.perf_counter()
        system.execute_batch(queries, compute_exact=False)
        batch_seconds.append(time.perf_counter() - start)

    best_sequential = min(sequential_seconds)
    best_batch = min(batch_seconds)
    sequential_qps = NUM_QUERIES / best_sequential
    batch_qps = NUM_QUERIES / best_batch
    speedup = batch_qps / sequential_qps

    record_bench(
        "batch_throughput",
        params={
            "num_queries": NUM_QUERIES,
            "federation_rows": NUM_ROWS,
            "num_providers": system.num_providers,
            "reps": REPS,
        },
        metrics={
            "sequential_qps": round(sequential_qps, 1),
            "batch_qps": round(batch_qps, 1),
            "speedup": round(speedup, 2),
        },
    )
    print(
        f"\nbatch throughput: {batch_qps:.0f} q/s vs sequential {sequential_qps:.0f} q/s "
        f"({speedup:.2f}x)"
    )
    assert speedup >= MIN_SPEEDUP, (
        f"batch path must be >= {MIN_SPEEDUP}x the per-query loop, got {speedup:.2f}x "
        f"(batch {batch_qps:.0f} q/s, sequential {sequential_qps:.0f} q/s)"
    )

    benchmark(lambda: system.execute_batch(queries, compute_exact=False).values)
