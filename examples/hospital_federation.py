"""Federated hospital study: COUNT queries over unevenly sized partitions.

The paper motivates the system with multi-hospital studies (e.g. during a
pandemic): several hospitals hold patient records with the same schema but
must not share rows.  This example builds four "hospitals" of very different
sizes (a university hospital, two regional ones, and a small clinic), runs an
analyst's workload of COUNT range queries, and shows

* how the allocation phase gives larger sample allocations to the providers
  that hold more query-relevant data, and
* how the end user's total privacy budget depletes query by query.
"""

from __future__ import annotations

import numpy as np

from repro import PrivacyConfig, RangeQuery, SamplingConfig, SystemConfig, FederatedAQPSystem
from repro.federation.partitioning import partition_skewed
from repro.storage.schema import Dimension, Schema
from repro.storage.table import Table


def build_patient_table(num_rows: int, seed: int) -> Table:
    """Synthetic patient-visit table shared by all hospitals."""
    rng = np.random.default_rng(seed)
    schema = Schema(
        (
            Dimension("age", 0, 100),
            Dimension("stay_days", 0, 60),
            Dimension("severity", 0, 4),
            Dimension("diagnosis_code", 0, 199),
        )
    )
    return Table(
        schema,
        {
            "age": np.clip(rng.normal(55, 20, num_rows).round(), 0, 100).astype(int),
            "stay_days": rng.poisson(5, num_rows).clip(0, 60),
            "severity": rng.integers(0, 5, num_rows),
            "diagnosis_code": rng.integers(0, 200, num_rows),
        },
    )


def main() -> None:
    table = build_patient_table(200_000, seed=3)
    # One university hospital holds half the records; the clinic holds 5%.
    hospitals = partition_skewed(table, weights=[0.5, 0.25, 0.20, 0.05], rng=3)
    names = ["university", "regional-a", "regional-b", "clinic"]
    for name, partition in zip(names, hospitals):
        print(f"{name:12s}: {partition.num_rows} patient records")

    config = SystemConfig(
        cluster_size=500,
        privacy=PrivacyConfig(epsilon=1.0, delta=1e-3),
        sampling=SamplingConfig(sampling_rate=0.15, min_clusters_for_approximation=4),
        seed=11,
    )
    system = FederatedAQPSystem.from_partitions(
        hospitals, config=config, total_epsilon=10.0, total_delta=0.05
    )

    workload = [
        RangeQuery.count({"age": (60, 100), "severity": (3, 4)}),
        RangeQuery.count({"age": (0, 18), "stay_days": (7, 60)}),
        RangeQuery.count({"severity": (2, 4), "stay_days": (3, 20)}),
        RangeQuery.count({"age": (30, 70), "diagnosis_code": (20, 120)}),
    ]

    print("\nanalyst workload")
    print("-" * 72)
    for query in workload:
        result = system.execute(query)
        allocations = {
            release.provider_id: release.allocation for release in result.provider_releases
        }
        print(query.to_sql("patients"))
        print(
            f"  exact={result.exact_value}  estimate={result.value:.0f}  "
            f"rel_err={100 * (result.relative_error or 0):.1f}%  "
            f"rows scanned={result.trace.rows_scanned}/{result.trace.rows_available}"
        )
        print(f"  per-hospital sample allocations: {allocations}")
        print(f"  remaining user budget (epsilon, delta): {system.remaining_budget()}")
        print()


if __name__ == "__main__":
    main()
