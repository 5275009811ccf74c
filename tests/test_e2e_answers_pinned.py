"""The end-to-end workloads' released answers, pinned at smoke size.

``benchmarks/e2e/run.py`` prints an ``answers_digest`` per workload — a
sha256 over every released ``(value, epsilon charged)`` — and
``benchmarks/e2e/baseline.json`` records it for the full-size seed-0 runs;
``tools/check_e2e_digests.py`` (the CI ``e2e-digest`` job) re-runs those.
Here the same four workloads run at the smoke test's shrunken sizes, in
well under a second each, so a change that moves a released bit fails
tier-1 and not only the slower job.  The prefixes were recorded at the
commit the full-size baseline digests still held at; like them they belong
to the NumPy version ``baseline.json`` names (random streams, float
kernels), so under another NumPy the test is skipped, not failed.
"""

from __future__ import annotations

import importlib
import json
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

E2E = Path(__file__).resolve().parents[1] / "benchmarks" / "e2e"

# benchmarks/e2e/test_e2e_smoke.py's sizes.
TINY = {
    "scan_wide": dict(rows=20_000, ops=20, batch_queries=8, verify_ops=4, exact_ops=2),
    "batch_small": dict(rows=5_000, ops=20, batch_queries=8, verify_ops=4, exact_ops=4),
    "wire_socket": dict(rows=5_000, ops=20, batch_queries=4, verify_ops=6, exact_ops=6),
    "serve_live": dict(
        rows=5_000, ops=20, batch_queries=6, verify_ops=2, exact_ops=2,
        dashboard_submissions=2, wide_pool=24, narrow_pool=12,
        ingest_rows=120, max_delta_rows=100,
    ),
}

PINNED = {
    "scan_wide": "30ac6675705e7a4f",
    "batch_small": "956929b0d40f63c3",
    "wire_socket": "e01ca065ea772b67",
    "serve_live": "26e1abd966f23bb2",
}

# Real framed bytes per query of the one socket workload at these sizes: a
# count, not a timing, so a change that puts more on the wire fails here
# too, not only against ``tools/check_e2e_digests.py``'s full-size ceiling.
WIRE_BYTES = {"wire_socket": 1496.275}


@pytest.fixture
def workloads(monkeypatch):
    recorded_numpy = json.loads((E2E / "baseline.json").read_text())["numpy"]
    if np.__version__ != recorded_numpy:
        pytest.skip(f"digests recorded under numpy {recorded_numpy}")
    monkeypatch.syspath_prepend(str(E2E))
    return importlib.import_module("workloads")


@pytest.mark.parametrize("name", sorted(PINNED))
def test_smoke_size_answers_digest_is_unchanged(name, workloads):
    spec = replace(workloads.WORKLOADS[name], **TINY[name])
    inputs = workloads.make_inputs(spec, 0, spec.ops)
    result = workloads.run_workload(spec, inputs, setup_reps=1)
    assert result.correct, (result.checks, result.errors)
    assert result.answers_digest[:16] == PINNED[name]
    if name in WIRE_BYTES:
        assert result.metrics["wire_bytes_per_query"] == WIRE_BYTES[name]
