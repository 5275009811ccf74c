"""Section 6.1 — metadata space allocation.

Paper numbers: ~6.4 MB (64 KB/cluster) of metadata for Adult and ~11 MB
(56 KB/cluster) for Amazon Review — i.e. a small fraction of the stored
data.  The reproduced quantity to check is that ratio, since absolute sizes
scale with the synthetic dataset size.

Each recording run (``REPRO_BENCH_RECORD=1``) also appends the measured
fractions to
``results/BENCH_metadata_space.json`` through the shared harness so the
footprint trajectory across commits can be tracked.
"""

from __future__ import annotations

import os

from _harness import record_bench

from repro.experiments.metadata_space import format_metadata_space, run_metadata_space

# Metadata must stay a small fraction of the data it indexes.  The fraction
# is size-dependent (per-cluster entry counts do not shrink with the table),
# so smoke-size CI runs relax the gate via the environment.
MAX_METADATA_FRACTION = float(os.environ.get("REPRO_BENCH_MAX_METADATA_FRACTION", "0.5"))


def test_metadata_space_allocation(benchmark, adult, amazon, write_result):
    points = run_metadata_space([adult, amazon])
    write_result("metadata_space", format_metadata_space(points))

    for point in points:
        assert point.metadata_bytes > 0
        assert point.metadata_fraction < MAX_METADATA_FRACTION

    record_bench(
        "metadata_space",
        params={"datasets": [point.dataset for point in points]},
        metrics={
            point.dataset: {
                "metadata_bytes": int(point.metadata_bytes),
                "metadata_fraction": round(point.metadata_fraction, 5),
                "bytes_per_cluster": round(point.metadata_bytes_per_cluster, 1),
            }
            for point in points
        },
    )

    # Benchmark the offline pre-processing step itself (Algorithm 1) on one
    # provider's clustered table.
    from repro.storage.metadata import build_metadata

    provider = adult.system.providers[0]
    benchmark(lambda: build_metadata(provider.clustered).size_bytes())
