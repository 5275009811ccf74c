"""Serving-layer benchmark: aggregate multi-tenant throughput via coalescing.

Eight tenants each submit a distinct workload to the
:class:`~repro.service.scheduler.SessionScheduler` twice:

* **serial** — ``max_batch_size=1``: every query is its own protocol batch,
  the per-tenant serial baseline (what running each tenant's traffic
  one query at a time costs);
* **coalesced** — one shared cross-tenant batch per drain, amortising the
  metadata pass and provider round-trips across the whole fleet.

The coalesced mode must deliver at least ``REPRO_BENCH_MIN_SPEEDUP`` (2x
default) the aggregate queries/sec of the serial mode, while remaining
*semantically identical*: per-tenant epsilon charges — and, thanks to the
per-``(tenant, sequence)`` noise streams, the DP answers themselves — are
bit-identical in both modes.

Each recording run (``REPRO_BENCH_RECORD=1``) appends an entry to
``results/BENCH_service.json`` through the
shared harness (see :mod:`_harness` for the schema).
"""

from __future__ import annotations

import os
import time

from _harness import record_bench

from repro.config import ServiceConfig
from repro.experiments.scenarios import adult_scenario
from repro.query.model import Aggregation
from repro.service import SessionScheduler, TenantRegistry

NUM_TENANTS = 8
QUERIES_PER_TENANT = 8
NUM_ROWS = int(os.environ.get("REPRO_BENCH_SERVICE_ROWS", "100000"))
REPS = 5
MIN_SPEEDUP = float(os.environ.get("REPRO_BENCH_MIN_SPEEDUP", "2.0"))

TENANT_IDS = tuple(f"tenant-{index}" for index in range(NUM_TENANTS))


def _scenario():
    return adult_scenario(num_rows=NUM_ROWS, seed=0)


def _workloads(scenario):
    """One distinct workload per tenant (no cross-tenant predicate overlap)."""
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
    return {
        tenant_id: queries[index * QUERIES_PER_TENANT : (index + 1) * QUERIES_PER_TENANT]
        for index, tenant_id in enumerate(TENANT_IDS)
    }


def _registry():
    registry = TenantRegistry()
    for tenant_id in TENANT_IDS:
        registry.register(tenant_id, total_epsilon=1e6, total_delta=1.0)
    return registry


def _serve(system, workloads, *, max_batch_size: int):
    scheduler = SessionScheduler(
        system,
        _registry(),
        config=ServiceConfig(
            max_batch_size=max_batch_size, max_pending=NUM_TENANTS * 2
        ),
    )
    start = time.perf_counter()
    for tenant_id in TENANT_IDS:
        scheduler.submit(tenant_id, workloads[tenant_id])
    answers = scheduler.drain()
    seconds = time.perf_counter() - start
    per_tenant = {
        answer.tenant_id: (answer.values, answer.epsilon_charged)
        for answer in answers
    }
    return per_tenant, seconds, scheduler.stats


def test_multi_tenant_coalescing_throughput():
    scenario = _scenario()
    workloads = _workloads(scenario)
    total_queries = NUM_TENANTS * QUERIES_PER_TENANT

    # Semantics first: identical per-tenant answers and epsilon charges in
    # both modes (fresh identically-seeded systems; the per-tenant noise
    # streams make coalescing invisible to every tenant).
    serial_state, _, _ = _serve(
        scenario.fresh_system(), workloads, max_batch_size=1
    )
    coalesced_state, _, coalesced_stats = _serve(
        scenario.fresh_system(), workloads, max_batch_size=total_queries
    )
    assert coalesced_state == serial_state
    assert coalesced_stats.cross_tenant_batches >= 1

    # Steady-state timing on one warmed system per mode.
    serial_system = scenario.fresh_system()
    coalesced_system = scenario.fresh_system()
    _serve(serial_system, workloads, max_batch_size=1)
    _serve(coalesced_system, workloads, max_batch_size=total_queries)
    serial_seconds = []
    coalesced_seconds = []
    for _ in range(REPS):
        _, seconds, _ = _serve(serial_system, workloads, max_batch_size=1)
        serial_seconds.append(seconds)
        _, seconds, _ = _serve(
            coalesced_system, workloads, max_batch_size=total_queries
        )
        coalesced_seconds.append(seconds)

    serial_qps = total_queries / min(serial_seconds)
    coalesced_qps = total_queries / min(coalesced_seconds)
    speedup = coalesced_qps / serial_qps

    record_bench(
        "service",
        params={
            "num_tenants": NUM_TENANTS,
            "queries_per_tenant": QUERIES_PER_TENANT,
            "federation_rows": NUM_ROWS,
            "reps": REPS,
        },
        metrics={
            "serial_qps": round(serial_qps, 1),
            "coalesced_qps": round(coalesced_qps, 1),
            "speedup": round(speedup, 2),
            "epsilon_per_tenant": QUERIES_PER_TENANT * 1.0,
        },
    )
    print(
        f"\nservice throughput ({NUM_TENANTS} tenants): coalesced {coalesced_qps:.0f} q/s "
        f"vs per-tenant serial {serial_qps:.0f} q/s ({speedup:.2f}x)"
    )
    assert speedup >= MIN_SPEEDUP, (
        f"cross-tenant coalescing delivered only {speedup:.2f}x aggregate throughput "
        f"(required {MIN_SPEEDUP}x); serial {serial_qps:.0f} q/s, "
        f"coalesced {coalesced_qps:.0f} q/s"
    )
