"""Ingestion benchmark: sustained append throughput under live query traffic.

Eight tenants keep submitting query workloads to the
:class:`~repro.service.scheduler.SessionScheduler` for several drain rounds,
twice:

* **static** — queries only: the baseline per-drain latency;
* **live** — every round additionally queues one ingest batch, sized so each
  provider's :class:`~repro.config.IngestConfig` threshold trips and at
  least one full **compaction cycle** (append → fold → epoch bump) runs
  while the tenants' traffic keeps flowing.

The gate is the latency-degradation bound: the live p50 per-drain latency
must stay within ``REPRO_BENCH_INGEST_MAX_SLOWDOWN`` (2.5x default,
env-relaxable) of the static p50, and at least one compaction must have
happened — i.e. absorbing writes and folding them costs at most a bounded
constant factor, never a stop-the-world pause.  Sustained ingest rows/sec
is recorded alongside.

Each recording run (``REPRO_BENCH_RECORD=1``) appends an entry to
``results/BENCH_ingest.json`` through the
shared harness (see :mod:`_harness` for the schema).
"""

from __future__ import annotations

import os
import statistics
import time

import numpy as np

from _harness import record_bench, stats_metrics

from repro.config import IngestConfig, ServiceConfig, SystemConfig
from repro.core.system import FederatedAQPSystem
from repro.experiments.scenarios import adult_scenario
from repro.query.model import Aggregation
from repro.service import SessionScheduler, TenantRegistry

NUM_TENANTS = 8
QUERIES_PER_TENANT = 4
ROUNDS = 9
NUM_ROWS = int(os.environ.get("REPRO_BENCH_INGEST_ROWS", "60000"))
INGEST_ROWS_PER_ROUND = max(NUM_ROWS // 24, 40)
MAX_SLOWDOWN = float(os.environ.get("REPRO_BENCH_INGEST_MAX_SLOWDOWN", "2.5"))

TENANT_IDS = tuple(f"tenant-{index}" for index in range(NUM_TENANTS))


def _build():
    scenario = adult_scenario(num_rows=NUM_ROWS, seed=0)
    # Threshold sized so every provider folds at least once over the run.
    config = SystemConfig(
        cluster_size=scenario.system.config.cluster_size,
        num_providers=scenario.system.config.num_providers,
        privacy=scenario.system.config.privacy,
        sampling=scenario.system.config.sampling,
        seed=0,
        ingest=IngestConfig(
            max_delta_rows=max(
                2 * INGEST_ROWS_PER_ROUND // scenario.system.num_providers, 1
            )
        ),
    )
    system = FederatedAQPSystem.from_table(scenario.tensor, config=config)
    generator = scenario.workload_generator(seed=23)
    accept_batch = scenario.batch_acceptance_predicate(min_selectivity=0.02)
    queries = list(
        generator.generate(
            NUM_TENANTS * QUERIES_PER_TENANT,
            3,
            Aggregation.COUNT,
            accept_batch=accept_batch,
        )
    )
    workloads = {
        tenant_id: queries[
            index * QUERIES_PER_TENANT : (index + 1) * QUERIES_PER_TENANT
        ]
        for index, tenant_id in enumerate(TENANT_IDS)
    }
    # Ingest traffic: fresh draws from the same distribution, pre-split into
    # per-round batches (rows stay inside the tensor schema's domains).
    tensor = scenario.tensor
    rng = np.random.default_rng(7)
    batches = [
        tensor.take(rng.integers(0, tensor.num_rows, INGEST_ROWS_PER_ROUND))
        for _ in range(ROUNDS)
    ]
    registry = TenantRegistry()
    for tenant_id in TENANT_IDS:
        registry.register(tenant_id, total_epsilon=1e9, total_delta=1.0)
    scheduler = SessionScheduler(
        system,
        registry,
        config=ServiceConfig(max_pending=NUM_TENANTS * (ROUNDS + 2)),
    )
    return scheduler, workloads, batches


def _run(scheduler, workloads, batches, *, live: bool):
    latencies = []
    for round_index in range(ROUNDS):
        start = time.perf_counter()
        for tenant_id in TENANT_IDS:
            scheduler.submit(tenant_id, workloads[tenant_id])
        if live:
            scheduler.submit_ingest(batches[round_index])
        answers = scheduler.drain()
        latencies.append(time.perf_counter() - start)
        assert len(answers) == NUM_TENANTS
    return latencies


def test_sustained_ingest_under_live_query_traffic():
    static_scheduler, workloads, batches = _build()
    _run(static_scheduler, workloads, batches, live=False)  # warm-up round set
    static_latencies = _run(static_scheduler, workloads, batches, live=False)

    live_scheduler, workloads, batches = _build()
    _run(live_scheduler, workloads, batches, live=False)  # identical warm-up
    ingest_start = time.perf_counter()
    live_latencies = _run(live_scheduler, workloads, batches, live=True)
    live_seconds = time.perf_counter() - ingest_start

    static_p50 = statistics.median(static_latencies)
    live_p50 = statistics.median(live_latencies)
    slowdown = live_p50 / static_p50
    rows_ingested = live_scheduler.stats.rows_ingested
    compactions = live_scheduler.stats.compactions
    ingest_rows_per_sec = rows_ingested / live_seconds
    network = live_scheduler.system.aggregator.network.snapshot()

    record_bench(
        "ingest",
        params={
            "num_tenants": NUM_TENANTS,
            "queries_per_tenant": QUERIES_PER_TENANT,
            "rounds": ROUNDS,
            "federation_rows": NUM_ROWS,
            "ingest_rows_per_round": INGEST_ROWS_PER_ROUND,
        },
        metrics={
            "static_p50_seconds": round(static_p50, 4),
            "live_p50_seconds": round(live_p50, 4),
            "latency_slowdown": round(slowdown, 3),
            "ingest_rows_per_sec": round(ingest_rows_per_sec, 1),
            **stats_metrics(
                live_scheduler.stats, keys=("rows_ingested", "compactions")
            ),
            **stats_metrics(
                network, keys=("ingest_messages", "ingest_bytes_sent")
            ),
        },
    )
    print(
        f"\ningest under load ({NUM_TENANTS} tenants): {ingest_rows_per_sec:.0f} rows/s "
        f"sustained, {compactions} compactions, query p50 {live_p50 * 1e3:.1f} ms "
        f"live vs {static_p50 * 1e3:.1f} ms static ({slowdown:.2f}x)"
    )
    # Acceptance: at least one full compaction cycle ran under live traffic...
    assert compactions >= 1, "no compaction cycle ran under live traffic"
    assert rows_ingested == ROUNDS * INGEST_ROWS_PER_ROUND
    # ...and absorbing it kept query latency within the degradation gate.
    assert slowdown <= MAX_SLOWDOWN, (
        f"live-ingest query p50 degraded {slowdown:.2f}x over static "
        f"(gate {MAX_SLOWDOWN}x): static {static_p50:.4f}s, live {live_p50:.4f}s"
    )
