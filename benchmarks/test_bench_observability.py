"""Observability overhead benchmark: tracing on vs off, same workload.

Runs the batch-throughput workload (16 queries, ~100k-row federation)
against two identically-seeded systems — observability disabled (the
default hot path) and enabled at the default sampling rate — and measures
steady-state batch latency for each, interleaved, min-of-reps.

Two gates:

* **semantics** — the enabled run's answers and charges are bit-identical
  to the disabled run's (tracing consumes no randomness);
* **overhead** — enabled costs at most ``REPRO_BENCH_MAX_OBS_OVERHEAD``
  (5% default, env-relaxable for noisy shared runners) over disabled.

Each recording run (``REPRO_BENCH_RECORD=1``) appends an entry to
``results/BENCH_observability.json`` through
the shared harness (see :mod:`_harness` for the schema).
"""

from __future__ import annotations

import os
import time

from _harness import record_bench

from repro.config import ObservabilityConfig
from repro.core.system import FederatedAQPSystem
from repro.experiments.scenarios import adult_scenario
from repro.query.model import Aggregation

NUM_QUERIES = 16
NUM_ROWS = int(os.environ.get("REPRO_BENCH_OBS_ROWS", "100000"))
REPS = 9
MAX_OVERHEAD = float(os.environ.get("REPRO_BENCH_MAX_OBS_OVERHEAD", "0.05"))


def _build(enabled: bool):
    scenario = adult_scenario(num_rows=NUM_ROWS, seed=0)
    config = scenario.system.config.with_observability(
        ObservabilityConfig(enabled=enabled)
    )
    system = FederatedAQPSystem.from_table(scenario.tensor, config=config)
    generator = scenario.workload_generator(seed=11)
    accept_batch = scenario.batch_acceptance_predicate(min_selectivity=0.02)
    queries = list(
        generator.generate(NUM_QUERIES, 3, Aggregation.COUNT, accept_batch=accept_batch)
    )
    return system, queries


def test_tracing_overhead_within_gate():
    off_system, queries = _build(enabled=False)
    on_system, on_queries = _build(enabled=True)
    assert [q.to_sql() for q in on_queries] == [q.to_sql() for q in queries]

    # Semantics: identical seeds, identical bits, observability on or off.
    off_values = [
        (r.value, r.epsilon_spent, r.delta_spent)
        for r in off_system.execute_batch(queries, compute_exact=False).results
    ]
    on_values = [
        (r.value, r.epsilon_spent, r.delta_spent)
        for r in on_system.execute_batch(queries, compute_exact=False).results
    ]
    assert on_values == off_values

    # Steady state, interleaved so machine drift hits both arms equally.
    off_seconds: list[float] = []
    on_seconds: list[float] = []
    for _ in range(REPS):
        start = time.perf_counter()
        off_system.execute_batch(queries, compute_exact=False)
        off_seconds.append(time.perf_counter() - start)
        start = time.perf_counter()
        on_system.execute_batch(queries, compute_exact=False)
        on_seconds.append(time.perf_counter() - start)

    best_off = min(off_seconds)
    best_on = min(on_seconds)
    overhead = best_on / best_off - 1.0
    spans = len(on_system.obs.tracer.spans())

    record_bench(
        "observability",
        params={
            "num_queries": NUM_QUERIES,
            "federation_rows": NUM_ROWS,
            "num_providers": off_system.num_providers,
            "reps": REPS,
            "trace_sample_rate": on_system.config.observability.trace_sample_rate,
        },
        metrics={
            "disabled_qps": round(NUM_QUERIES / best_off, 1),
            "enabled_qps": round(NUM_QUERIES / best_on, 1),
            "overhead_fraction": round(overhead, 4),
            "spans_recorded": spans,
        },
    )
    print(
        f"\nobservability overhead: {overhead * 100:.2f}% "
        f"(off {NUM_QUERIES / best_off:.0f} q/s, on {NUM_QUERIES / best_on:.0f} q/s, "
        f"{spans} spans)"
    )
    assert spans > 0, "the enabled arm must actually be tracing"
    assert overhead <= MAX_OVERHEAD, (
        f"tracing at default sampling cost {overhead * 100:.2f}% "
        f"(gate {MAX_OVERHEAD * 100:.0f}%): off {best_off:.4f}s, on {best_on:.4f}s"
    )
