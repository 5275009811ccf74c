"""Transport overhead benchmark: in-process vs loopback vs socket vs sharded.

Times the full DP protocol on a small federation under every transport the
system supports, on the same table and query workload:

* ``inprocess`` — direct method calls (the reference; zero wire cost);
* ``loopback`` — full serialize → frame → deframe → deserialize round
  trip in-process, isolating pure codec + framing overhead;
* ``socket`` — real localhost TCP with length-prefixed frames, adding
  syscalls and one thread hand-off to the connection's handler and back;
* ``sharded-k2`` — in-process transport with each provider's table split
  across two shard workers, isolating the shard merge overhead.

Every configuration is asserted bit-identical to the in-process reference
— ``(value, epsilon_spent, delta_spent)`` per query — before any timing is
recorded, so the numbers can never describe diverging answers.  Timings
are recorded without a gate: the point is the recorded overhead ratio, and
wire transports on a loaded CI box are too noisy for a hard floor.

With ``REPRO_BENCH_RECORD=1`` entries append to
``results/BENCH_transport.json`` via the shared harness.
Scale knob: ``REPRO_BENCH_TRANSPORT_ROWS`` (default 60 000).
"""

from __future__ import annotations

import os
import time

import numpy as np
from _harness import record_bench

from repro.config import SamplingConfig, SystemConfig, TransportConfig
from repro.core.system import FederatedAQPSystem
from repro.query.model import RangeQuery
from repro.storage.schema import Dimension, Schema
from repro.storage.table import Table

ROWS = int(os.environ.get("REPRO_BENCH_TRANSPORT_ROWS", "60000"))
NUM_PROVIDERS = 3
NUM_QUERIES = 12
REPS = 3

SCHEMA = Schema(
    (
        Dimension("age", 0, 99),
        Dimension("hours", 0, 49),
        Dimension("dept", 0, 19),
    )
)

TRANSPORTS = {
    "inprocess": TransportConfig(),
    "loopback": TransportConfig(kind="loopback"),
    "socket": TransportConfig(kind="socket"),
    "sharded-k2": TransportConfig(shard_workers=2),
}


def _table() -> Table:
    rng = np.random.default_rng(31)
    return Table(
        SCHEMA,
        {
            "age": rng.integers(0, 100, ROWS),
            "hours": np.minimum(49, rng.poisson(14, ROWS)),
            "dept": rng.integers(0, 20, ROWS),
        },
    )


def _workload() -> list[RangeQuery]:
    rng = np.random.default_rng(17)
    queries = []
    for _ in range(NUM_QUERIES):
        age_low = int(rng.integers(0, 80))
        hours_low = int(rng.integers(0, 30))
        queries.append(
            RangeQuery.count(
                {
                    "age": (age_low, age_low + int(rng.integers(5, 20))),
                    "hours": (hours_low, hours_low + int(rng.integers(5, 19))),
                }
            )
        )
    return queries


def _config(transport: TransportConfig) -> SystemConfig:
    return SystemConfig(
        cluster_size=500,
        num_providers=NUM_PROVIDERS,
        sampling=SamplingConfig(sampling_rate=0.25, min_clusters_for_approximation=3),
        transport=transport,
        seed=29,
    )


def _best_seconds(fn) -> float:
    best = float("inf")
    for _ in range(REPS):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def test_bench_transport_overhead():
    table = _table()
    queries = _workload()
    reference = None
    timings: dict[str, float] = {}
    wire: dict[str, dict[str, int]] = {}
    for name, transport in TRANSPORTS.items():
        with FederatedAQPSystem.from_table(
            table, config=_config(transport)
        ) as system:
            batch = system.execute_batch(queries, compute_exact=False)
            fingerprint = [
                (r.value, r.epsilon_spent, r.delta_spent) for r in batch.results
            ]
            if reference is None:
                reference = fingerprint
            assert fingerprint == reference, name
            timings[name] = _best_seconds(
                lambda system=system: system.execute_batch(
                    queries, compute_exact=False
                )
            )
            stats = system.transport_stats()
            wire[name] = {
                "frames": stats.messages,
                "bytes_sent": stats.bytes_sent,
            }
    base = timings["inprocess"]
    record_bench(
        "transport",
        params={
            "rows": ROWS,
            "num_providers": NUM_PROVIDERS,
            "num_queries": NUM_QUERIES,
            "reps": REPS,
        },
        metrics={
            "seconds": {k: round(v, 6) for k, v in timings.items()},
            "overhead_vs_inprocess": {
                k: round(v / base, 3) for k, v in timings.items()
            },
            "wire": wire,
        },
    )
