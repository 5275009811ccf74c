"""Smoke test of the end-to-end benchmark at tiny tables and a few ops.

Drives ``run.py``'s own entry point, untraced and traced, on shrunken
copies of the four workloads, so the whole pipeline — inputs, set-up,
measured loop, verification, wrappers, self-time attribution, printing,
recording, comparing — is exercised in a few seconds.  Timings are not
asserted, only that every named metric is there and finite and that the
correctness checks hold.
"""

from __future__ import annotations

import json
import math
from dataclasses import replace
from pathlib import Path

import pytest

import compare
import layers
import run
import workloads

REPO = Path(__file__).resolve().parents[2]

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


def _watched_files() -> dict[str, tuple[int, int]]:
    """Everything the benchmark must not write: the contract, the legacy
    result files, and its own directory (bytecode caches aside)."""
    paths = [REPO / "BENCHMARK.json", *(REPO / "benchmarks" / "results").glob("*")]
    paths += [
        path for path in (REPO / "benchmarks" / "e2e").rglob("*")
        if path.is_file() and "__pycache__" not in path.parts
    ]
    return {
        str(path): (path.stat().st_mtime_ns, path.stat().st_size)
        for path in paths if path.exists()
    }


def _wrapped_attributes() -> list:
    return [
        vars(layers._resolve(owner))[name]
        for _, owner, names, _ in layers.TARGETS
        for name in names
    ]


@pytest.fixture
def tiny_workloads(monkeypatch):
    tiny = {
        name: replace(workloads.WORKLOADS[name], **sizes) for name, sizes in TINY.items()
    }
    monkeypatch.setattr(workloads, "WORKLOADS", tiny)
    monkeypatch.setattr(workloads, "MIN_OPS", 4)
    return tiny


def _run(capsys, *argv: str) -> dict:
    code = run.main(list(argv))
    lines = capsys.readouterr().out.strip().splitlines()
    summary = json.loads(lines[-1])
    assert code == 0, "\n".join(lines)
    assert summary["correct"] and summary["failed"] == 0 and summary["attempted"] >= 1
    assert not [line for line in lines if line.startswith("check") and "FAILED" in line]
    return summary


@pytest.mark.parametrize("name", list(TINY))
def test_workload_runs_untraced_and_traced(name, tiny_workloads, tmp_path, capsys):
    files_before = _watched_files()
    attributes_before = _wrapped_attributes()
    record = tmp_path / "runs.jsonl"
    spans = tmp_path / "spans.jsonl"

    untraced = _run(capsys, "--workload", name, "--record", str(record))
    assert set(untraced["metrics"]) == {metric for metric, _ in run.END_TO_END}
    for metric, entry in untraced["metrics"].items():
        assert math.isfinite(entry["value"]) and entry["value"] != 0, metric

    traced = _run(
        capsys, "--workload", name, "--trace", "1",
        "--record", str(record), "--out", str(spans),
    )
    assert set(traced["metrics"]) == {metric for metric, _, _ in layers.PER_LAYER}
    assert all(math.isfinite(entry["value"]) for entry in traced["metrics"].values())
    assert 0.5 < traced["metrics"]["budget.layer_sum_frac"]["value"] < 1.5

    # The wrappers are gone: every wrapped attribute is the object it was.
    attributes_after = _wrapped_attributes()
    assert all(a is b for a, b in zip(attributes_before, attributes_after))
    # The traced run answered exactly as its own untraced reference pass.
    recorded = [json.loads(line) for line in record.read_text().splitlines()]
    assert [entry["trace"] for entry in recorded] == [0, 1]
    assert recorded[1]["checks"]["digest_traced_equals_untraced"]
    assert spans.stat().st_size > 0
    # Active layers differ by workload exactly as the README says.
    table = recorded[1]["layers"]
    assert (table["federation.transport"]["self_ms_per_op"] > 0) == (name == "wire_socket")
    for layer in ("service.scheduler", "cache.store", "ingest"):
        assert (table[layer]["self_ms_per_op"] > 0) == (name == "serve_live"), layer
    # Nothing was written outside tmp_path.
    assert _watched_files() == files_before
    # A set of runs compared with itself is never worse.
    assert compare.compare(str(record), str(record)) == 0
    assert compare.summarise(str(record)) == 0
    capsys.readouterr()


def test_benchmark_json_matches_the_code():
    contract = json.loads((REPO / "BENCHMARK.json").read_text())
    assert contract["paths"] == ["benchmarks/e2e"]
    assert [entry["name"] for entry in contract["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in contract["end_to_end"]] == list(run.END_TO_END)
    assert [
        (m["name"], m["unit"], m["better"]) for m in contract["per_layer"]
    ] == list(layers.PER_LAYER)
    assert contract["run_seconds"] == workloads.NOMINAL_SECONDS
    assert all(0 < metric["bound"] <= 0.25 for metric in contract["end_to_end"])


def test_compare_verdicts():
    steady = [100.0, 101.0, 99.0, 100.5, 99.5]
    assert compare.verdict(steady, steady, "lower", 0.05) == "same"
    assert compare.verdict(steady, [value * 1.2 for value in steady], "lower", 0.05) == "worse"
    assert compare.verdict(steady, [value * 1.2 for value in steady], "higher", 0.05) == "better"
    noisy = [80.0, 120.0, 95.0, 105.0, 100.0]
    assert compare.verdict(noisy, [value * 1.03 for value in noisy], "lower", 0.05) == "unresolved"
